/**
 * @file
 * Hybrid (migration-path) walker: guest radix page tables, host ECPTs
 * (Section 6, Figure 8). Each of the up-to-five host translations of a
 * nested radix walk is replaced by a single parallel hECPT probe
 * group, pruned by an hCWC whose PTE usage depends on the walk row:
 * rows 1-2 (gL4/gL3) always use PTE hCWT entries, row 3 (gL2) uses
 * them adaptively, and rows 4-5 (gL1/data) use PUD/PMD info only.
 */

#ifndef NECPT_WALK_HYBRID_HH
#define NECPT_WALK_HYBRID_HH

#include "mmu/cwc.hh"
#include "mmu/walk_caches.hh"
#include "walk/plan.hh"
#include "walk/walker.hh"

namespace necpt
{

/**
 * Walker for the "Nested Hybrid" configurations of Table 1.
 */
class HybridWalker : public Walker
{
  public:
    HybridWalker(NestedSystem &system, MemoryHierarchy &memory,
                 int core_id)
        : Walker(system, memory, core_id),
          gpwc(2, 5, 5), // Table 2 hybrid: 16 PWC entries total
          ntlb(24),
          hcwc({16, 16, 2}) // Table 2: 16PTE + 16PMD + 2PUD
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "NestedHybrid"; }

    void
    resetStats() override
    {
        Walker::resetStats();
        gpwc.resetStats();
        ntlb.resetStats();
        hcwc.resetStats();
    }

    const AdaptiveCwcController &adaptiveController() const
    {
        return adaptive;
    }

    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr gpa,
                                std::uint64_t gpa_bytes) override
    {
        std::size_t n = gpwc.invalidateRange(gva, bytes);
        if (gpa_bytes > 0) {
            n += ntlb.invalidateRange(gpa, gpa_bytes);
            n += hcwc.invalidateRange(gpa, gpa_bytes);
        }
        return n;
    }

  private:
    /**
     * One parallel hECPT translation of @p gpa (the Figure-8 "Step 3"
     * building block). @p row is 1..5 from gL4 down to the data page.
     * A @p traced walk traces its probe and refill requests.
     */
    Translation hostProbe(Addr gpa, int row, Cycles &t, int &accesses,
                          bool traced);

    PageWalkCache gpwc;
    NestedTlb ntlb;
    CuckooWalkCache hcwc;
    AdaptiveCwcController adaptive;
    std::vector<Addr> probe_buf;
    std::vector<Addr> refill_buf;
};

} // namespace necpt

#endif // NECPT_WALK_HYBRID_HH
