/**
 * @file
 * Nested radix walker: the full two-dimensional Figure-2 walk with up
 * to 24 sequential memory references, accelerated by a guest PWC
 * (gL4..gL2 entries), a nested PWC for the host levels (hL4..hL1), and
 * a Nested TLB caching gPA->hPA translations of guest page-table pages.
 */

#ifndef NECPT_WALK_NESTED_RADIX_HH
#define NECPT_WALK_NESTED_RADIX_HH

#include "mmu/walk_caches.hh"
#include "walk/walker.hh"

namespace necpt
{

/**
 * Walker for the "Nested Radix" configurations of Table 1.
 */
class NestedRadixWalker : public Walker
{
  public:
    NestedRadixWalker(NestedSystem &system, MemoryHierarchy &memory,
                      int core_id)
        : Walker(system, memory, core_id),
          gpwc(2, 5, 32),   // Table 2: PWC, 3 levels x 32 entries
          npwc(1, 5, 16),   // Table 2: NPWC, levels x 16 entries
          ntlb(24)
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "NestedRadix"; }

    const char *metricsSlug() const override { return "nested_radix"; }

    void
    registerMetrics(MetricsRegistry &reg,
                    const std::string &prefix) override
    {
        Walker::registerMetrics(reg, prefix);
        for (int l = gpwc.minLevel(); l <= gpwc.maxLevel(); ++l)
            reg.addHitMiss(prefix + "pwc.guest.l" + std::to_string(l),
                           &gpwc.stats(l));
        for (int l = npwc.minLevel(); l <= npwc.maxLevel(); ++l)
            reg.addHitMiss(prefix + "pwc.nested.l" + std::to_string(l),
                           &npwc.stats(l));
        reg.addHitMiss(prefix + "ntlb", &ntlb.stats(),
                       "nested TLB (gPA->hPA of guest PT pages)");
    }

    void
    resetStats() override
    {
        Walker::resetStats();
        gpwc.resetStats();
        npwc.resetStats();
        ntlb.resetStats();
    }

    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr gpa,
                                std::uint64_t gpa_bytes) override
    {
        std::size_t n = gpwc.invalidateRange(gva, bytes);
        if (gpa_bytes > 0) {
            n += npwc.invalidateRange(gpa, gpa_bytes);
            n += ntlb.invalidateRange(gpa, gpa_bytes);
        }
        return n;
    }

  private:
    /**
     * Host-dimension walk translating @p gpa, pruned by the NPWC.
     * Advances @p t and @p accesses; returns the host translation.
     */
    Translation hostWalk(Addr gpa, Cycles &t, int &accesses);

    PageWalkCache gpwc;
    PageWalkCache npwc;
    NestedTlb ntlb;
};

} // namespace necpt

#endif // NECPT_WALK_NESTED_RADIX_HH
