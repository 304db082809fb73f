/**
 * @file
 * Cuckoo Walk Cache (CWC) — the MMU cache of CWT entries (Sections 2.3,
 * 3.2) — and the adaptive PTE-caching controller of Section 4.2.
 *
 * A CWC holds whole CWT entries (a tag plus 16 section descriptors) in
 * per-page-size sub-caches whose capacities come straight from Table 2:
 * the gCWC has 16 PMD + 2 PUD entries; the Step-1 hCWC has 4 PTE
 * entries; the Step-3 hCWC has 16 PTE + 4 PMD + 2 PUD entries.
 *
 * Refill timing: a CWC miss during a walk does not stall the walk —
 * the walker collects the CWT line addresses (collectCwcRefills) and
 * issues them as a background memory transaction after the walk's
 * last foreground batch. The refill traffic competes for the same L2
 * MSHRs and DRAM banks as foreground probes over simulated time, but
 * its latency is off the walk's critical path; the entries are
 * installed architecturally at collection time, so a subsequent walk
 * hits regardless of when the refill transaction completes.
 */

#ifndef NECPT_MMU_CWC_HH
#define NECPT_MMU_CWC_HH

#include <array>
#include <cstdint>
#include <memory>

#include "common/stats.hh"
#include "mmu/assoc_cache.hh"
#include "pt/cwt.hh"

namespace necpt
{

/**
 * One Cuckoo Walk Cache with per-level sub-caches.
 */
class CuckooWalkCache
{
  public:
    /**
     * @param capacity entries per page-size level (0 = level not cached)
     * @param latency_cycles round trip (Table 2: 4 cycles)
     */
    explicit CuckooWalkCache(
        const std::array<std::size_t, num_page_sizes> &capacity,
        Cycles latency_cycles = 4);

    /**
     * Is the CWT entry @p entry_key of @p level cached? The CWC records
     * residency only: a walk reads the entry's descriptors through the
     * coherent software CWT.
     */
    bool lookup(PageSize level, std::uint64_t entry_key);

    /** Install a fetched CWT entry. */
    void fill(PageSize level, std::uint64_t entry_key);

    /**
     * Shootdown receive side: drop every cached CWT entry whose
     * coverage overlaps the VA range [base, base+bytes). The entry key
     * at each level is `va >> entryShiftFor(level)` (pt/cwt.hh), so
     * the range maps to a [lo, hi] key interval per level.
     * Survivors keep their LRU ranks. @return entries invalidated.
     */
    std::size_t invalidateRange(Addr base, std::uint64_t bytes);

    bool caches(PageSize level) const
    {
        return levels[static_cast<int>(level)] != nullptr;
    }

    Cycles latency() const { return latency_; }

    const HitMiss &stats(PageSize level) const
    {
        return stats_[static_cast<int>(level)];
    }

    void
    resetStats()
    {
        for (HitMiss &s : stats_)
            s.reset();
    }

  private:
    using Level = AssocCache<bool>;
    std::array<std::unique_ptr<Level>, num_page_sizes> levels;
    std::array<HitMiss, num_page_sizes> stats_;
    Cycles latency_;
};

/**
 * Adaptive PTE-hCWT caching controller (Section 4.2, Figure 12).
 *
 * Starts with PTE caching enabled. Hit rates of PTE and PMD entries in
 * the Step-3 hCWC are monitored over fixed cycle windows; when the PTE
 * hit rate falls below 0.5 caching is disabled, and while disabled it is
 * re-enabled when the PMD hit rate exceeds 0.85.
 */
class AdaptiveCwcController
{
  public:
    explicit AdaptiveCwcController(Cycles interval = 5'000'000,
                                   double disable_below = 0.5,
                                   double enable_above = 0.85)
        : pte_monitor(interval), pmd_monitor(interval),
          disable_threshold(disable_below),
          enable_threshold(enable_above)
    {}

    /** Record a Step-3 hCWC access outcome at @p level. */
    void
    record(Cycles now, PageSize level, bool hit)
    {
        if (level == PageSize::Page4K)
            pte_monitor.record(now, hit);
        else if (level == PageSize::Page2M)
            pmd_monitor.record(now, hit);
        evaluate();
    }

    /** Should PTE hCWT entries be cached right now? */
    bool pteCachingEnabled() const { return enabled; }

    /** Number of enable<->disable transitions (convergence check). */
    std::uint64_t transitions() const { return transitions_; }

    const RateMonitor &pteMonitor() const { return pte_monitor; }
    const RateMonitor &pmdMonitor() const { return pmd_monitor; }

  private:
    void
    evaluate()
    {
        // The first completed window is dominated by compulsory
        // (cold) misses; judging it would disable PTE caching before
        // it had a chance to warm (Figure 12 measures steady state).
        if (enabled && pte_monitor.history().size() >= 2
            && pte_monitor.lastRate() < disable_threshold) {
            enabled = false;
            ++transitions_;
        } else if (!enabled && pmd_monitor.hasSample()
                   && pmd_monitor.lastRate() > enable_threshold) {
            enabled = true;
            ++transitions_;
        }
    }

    RateMonitor pte_monitor;
    RateMonitor pmd_monitor;
    double disable_threshold;
    double enable_threshold;
    bool enabled = true;
    std::uint64_t transitions_ = 0;
};

} // namespace necpt

#endif // NECPT_MMU_CWC_HH
