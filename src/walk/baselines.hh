/**
 * @file
 * The Section-9.6 comparison baselines:
 *
 *  - AgilePagingWalker: idealized Agile Paging (Gandhi et al.,
 *    ISCA'16): at most four sequential memory references (the guest
 *    chain at host addresses), all radix caching, zero hypervisor cost.
 *  - PomTlbWalker: POM-TLB (Ryoo et al., ISCA'17) with a perfect page
 *    size predictor: one in-DRAM TLB probe; misses fall back to a full
 *    nested radix walk.
 *  - FlatNestedWalker: flat nested page tables (Ahn et al., ISCA'12):
 *    guest radix + flat host table, at most 9 sequential references.
 */

#ifndef NECPT_WALK_BASELINES_HH
#define NECPT_WALK_BASELINES_HH

#include <memory>

#include "mmu/pom_tlb.hh"
#include "mmu/walk_caches.hh"
#include "walk/nested_radix.hh"
#include "walk/walker.hh"

namespace necpt
{

/**
 * Idealized Agile Paging.
 */
class AgilePagingWalker : public Walker
{
  public:
    AgilePagingWalker(NestedSystem &system, MemoryHierarchy &memory,
                      int core_id)
        : Walker(system, memory, core_id), pwc(2, 5, 32)
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "AgilePagingIdeal"; }

    void
    resetStats() override
    {
        Walker::resetStats();
        pwc.resetStats();
    }

    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr,
                                std::uint64_t) override
    {
        return pwc.invalidateRange(gva, bytes);
    }

  private:
    PageWalkCache pwc;
};

/**
 * POM-TLB with perfect size prediction.
 */
class PomTlbWalker : public Walker
{
  public:
    PomTlbWalker(NestedSystem &system, MemoryHierarchy &memory,
                 int core_id, PomTlb &pom_tlb)
        : Walker(system, memory, core_id), pom(pom_tlb),
          fallback(system, memory, core_id)
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "POM-TLB"; }

    /** The shared POM-TLB's counters are the simulator's to reset;
     *  the fallback walker's caches are ours. */
    void
    resetStats() override
    {
        Walker::resetStats();
        fallback.resetStats();
    }

    /** The shared POM-TLB is scrubbed by the coherence controller
     *  directly; only the fallback walker's private caches are ours. */
    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr gpa,
                                std::uint64_t gpa_bytes) override
    {
        return fallback.invalidateTranslationCaches(gva, bytes, gpa,
                                                    gpa_bytes);
    }

  private:
    PomTlb &pom;
    NestedRadixWalker fallback;
};

/**
 * Flat nested page tables.
 */
class FlatNestedWalker : public Walker
{
  public:
    FlatNestedWalker(NestedSystem &system, MemoryHierarchy &memory,
                     int core_id)
        : Walker(system, memory, core_id), gpwc(2, 5, 32), ntlb(24)
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "FlatNested"; }

    void
    resetStats() override
    {
        Walker::resetStats();
        gpwc.resetStats();
        ntlb.resetStats();
    }

    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr gpa,
                                std::uint64_t gpa_bytes) override
    {
        std::size_t n = gpwc.invalidateRange(gva, bytes);
        if (gpa_bytes > 0)
            n += ntlb.invalidateRange(gpa, gpa_bytes);
        return n;
    }

  private:
    PageWalkCache gpwc;
    NestedTlb ntlb;
};

} // namespace necpt

#endif // NECPT_WALK_BASELINES_HH
