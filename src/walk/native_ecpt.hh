/**
 * @file
 * Native ECPT walker (Section 2.3, the ASPLOS'20 design): one parallel
 * probe phase over the per-size elastic cuckoo tables, pruned by a
 * Cuckoo Walk Cache holding PMD/PUD CWT entries (no PTE CWT natively —
 * Section 4.2 recalls why).
 */

#ifndef NECPT_WALK_NATIVE_ECPT_HH
#define NECPT_WALK_NATIVE_ECPT_HH

#include "mmu/cwc.hh"
#include "walk/plan.hh"
#include "walk/walker.hh"

namespace necpt
{

/**
 * Walker for the native "ECPTs" configurations of Table 1.
 */
class NativeEcptWalker : public Walker
{
  public:
    NativeEcptWalker(NestedSystem &system, MemoryHierarchy &memory,
                     int core_id)
        : Walker(system, memory, core_id),
          cwc({0, 16, 2}) // Table 2 gCWC geometry: 16 PMD + 2 PUD
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "ECPT"; }

    const char *metricsSlug() const override { return "ecpt"; }

    void
    registerMetrics(MetricsRegistry &reg,
                    const std::string &prefix) override
    {
        Walker::registerMetrics(reg, prefix);
        for (PageSize size : all_page_sizes) {
            if (!cwc.caches(size))
                continue;
            reg.addHitMiss(prefix + "cwc.gcwc." + pageLevelName(size),
                           &cwc.stats(size));
        }
    }

    void
    resetStats() override
    {
        Walker::resetStats();
        cwc.resetStats();
    }

    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr,
                                std::uint64_t) override
    {
        return cwc.invalidateRange(gva, bytes);
    }

  private:
    CuckooWalkCache cwc;
    std::vector<Addr> probe_buf;
    std::vector<Addr> refill_buf;
};

} // namespace necpt

#endif // NECPT_WALK_NATIVE_ECPT_HH
