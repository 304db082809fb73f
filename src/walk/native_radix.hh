/**
 * @file
 * Native radix walker: the Figure-1 x86-64 page walk with a per-core
 * Page Walk Cache covering the L4/L3/L2 entries (Section 2.1; L1/PTE
 * entries are not cached).
 */

#ifndef NECPT_WALK_NATIVE_RADIX_HH
#define NECPT_WALK_NATIVE_RADIX_HH

#include "mmu/walk_caches.hh"
#include "walk/walker.hh"

namespace necpt
{

/**
 * Walker for the native "Radix" configurations of Table 1.
 */
class NativeRadixWalker : public Walker
{
  public:
    NativeRadixWalker(NestedSystem &system, MemoryHierarchy &memory,
                      int core_id, std::size_t pwc_entries_per_level = 32)
        : Walker(system, memory, core_id),
          pwc(2, 5, pwc_entries_per_level)
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "Radix"; }

    const char *metricsSlug() const override { return "radix"; }

    void
    registerMetrics(MetricsRegistry &reg,
                    const std::string &prefix) override
    {
        Walker::registerMetrics(reg, prefix);
        for (int l = pwc.minLevel(); l <= pwc.maxLevel(); ++l)
            reg.addHitMiss(prefix + "pwc.l" + std::to_string(l),
                           &pwc.stats(l));
    }

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

} // namespace necpt

#endif // NECPT_WALK_NATIVE_RADIX_HH
