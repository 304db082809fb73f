/**
 * @file
 * MMU caches that accelerate radix and nested walks:
 *
 *  - PageWalkCache (PWC): caches intermediate radix entries (L4/L3/L2 in
 *    native walks; the guest levels of nested walks). Keyed per level by
 *    the VA prefix that selects the entry (Section 2.1).
 *  - NestedPwc (NPWC): same structure for the host levels of a nested
 *    radix walk, keyed by gPA prefixes.
 *  - FrameCache: a gPA page -> hPA frame cache, under the paper's two
 *    names for its two uses:
 *    - NestedTlb (NTLB) caches the translation of guest page-table
 *      pages, letting a nested radix walk skip four host levels per
 *      guest level (Figure 2 dashed lines).
 *    - ShortcutTranslationCache (STC), the paper's new structure
 *      (Section 4.1), caches the translation of guest Cuckoo Walk
 *      Table entries so gCWC refills need no host walk.
 *
 * Like the CWCs, these structures refill off the walk's critical
 * path: the walker batches the backing page-table lines into a
 * background memory transaction that contends for MSHRs and DRAM
 * banks alongside foreground probe traffic, while the cached entries
 * themselves are installed at lookup-miss time.
 */

#ifndef NECPT_MMU_WALK_CACHES_HH
#define NECPT_MMU_WALK_CACHES_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "mmu/assoc_cache.hh"

namespace necpt
{

/**
 * Per-level cache of radix page-table entries.
 */
class PageWalkCache
{
  public:
    /**
     * @param min_level deepest cached level (native PWCs stop at 2
     *        because L1/PTE entries are not cached, Section 2.1;
     *        nested-host PWCs cache down to 1)
     * @param max_level shallowest cached level (4)
     * @param entries_per_level fully-associative entries per level
     * @param latency_cycles round-trip latency (Table 2: 4 cycles)
     */
    PageWalkCache(int min_level, int max_level,
                  std::size_t entries_per_level,
                  Cycles latency_cycles = 4)
        : min_lvl(min_level), max_lvl(max_level), latency_(latency_cycles)
    {
        for (int l = min_lvl; l <= max_lvl; ++l)
            caches.push_back(std::make_unique<Level>(entries_per_level));
        stats_.resize(caches.size());
    }

    /** Is the level-@p level entry for @p va cached? */
    bool
    lookup(int level, Addr va)
    {
        if (level < min_lvl || level > max_lvl)
            return false;
        const int i = level - min_lvl;
        if (caches[i]->find(prefix(va, level))) {
            stats_[i].hit();
            return true;
        }
        stats_[i].miss();
        return false;
    }

    /** Record the level-@p level entry for @p va. */
    void
    fill(int level, Addr va)
    {
        if (level < min_lvl || level > max_lvl)
            return;
        caches[level - min_lvl]->insert(prefix(va, level), true);
    }

    /** Shootdown receive side: drop every cached entry whose subtree
     *  overlaps [base, base+bytes), at every level. Survivors keep
     *  their LRU ranks. @return entries invalidated. */
    std::size_t
    invalidateRange(Addr base, std::uint64_t bytes)
    {
        std::size_t count = 0;
        const Addr last = base + (bytes ? bytes - 1 : 0);
        for (int l = min_lvl; l <= max_lvl; ++l) {
            count += caches[l - min_lvl]->invalidateKeys(
                prefix(base, l), prefix(last, l));
        }
        return count;
    }

    Cycles latency() const { return latency_; }
    int minLevel() const { return min_lvl; }
    int maxLevel() const { return max_lvl; }

    const HitMiss &stats(int level) const { return stats_[level - min_lvl]; }

    void
    resetStats()
    {
        for (HitMiss &s : stats_)
            s.reset();
    }

  private:
    using Level = AssocCache<bool>;

    /** VA bits [47 : index-low-bit(level)] uniquely name the entry. */
    static std::uint64_t
    prefix(Addr va, int level)
    {
        return va >> (12 + 9 * (level - 1));
    }

    int min_lvl;
    int max_lvl;
    Cycles latency_;
    std::vector<std::unique_ptr<Level>> caches;
    std::vector<HitMiss> stats_;
};

/**
 * Fully associative, LRU gPA page -> hPA frame cache. Table 2 sizes
 * the NTLB at 24 entries and the STC at 10 (the default), both with a
 * 4-cycle round trip.
 */
class FrameCache
{
  public:
    explicit FrameCache(std::size_t entries = 10, Cycles latency_cycles = 4)
        : cache(entries), latency_(latency_cycles)
    {}

    /** @return the hPA frame base, or nullptr on miss. */
    Addr *
    lookup(Addr gpa)
    {
        Addr *frame = cache.find(gpa >> 12);
        if (frame)
            stats_.hit();
        else
            stats_.miss();
        return frame;
    }

    void
    fill(Addr gpa, Addr hpa_frame)
    {
        cache.insert(gpa >> 12, hpa_frame);
    }

    /** Drop entries for gPA pages in [base, base+bytes) — the host
     *  re-backed those pages (migration / balloon). LRU-preserving. */
    std::size_t
    invalidateRange(Addr base, std::uint64_t bytes)
    {
        return cache.invalidateKeys(base >> 12,
                                    (base + (bytes ? bytes - 1 : 0)) >> 12);
    }

    Cycles latency() const { return latency_; }
    const HitMiss &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    std::size_t capacity() const { return cache.capacity(); }

  private:
    AssocCache<Addr> cache;
    Cycles latency_;
    HitMiss stats_;
};

/** Nested TLB: guest page-table pages (Figure 2). */
using NestedTlb = FrameCache;

/** Shortcut Translation Cache: guest CWT entries (Section 4.1). */
using ShortcutTranslationCache = FrameCache;

} // namespace necpt

#endif // NECPT_MMU_WALK_CACHES_HH
