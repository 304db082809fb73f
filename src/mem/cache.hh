/**
 * @file
 * Set-associative data-cache model with true-LRU replacement.
 *
 * The model tracks which lines are resident (so page-walk pollution is
 * real: walker fills evict demand lines and vice versa) and per-requester
 * hit/miss statistics for the Figure 13 RPKI/MPKI characterization. Data
 * values are not stored — only addresses matter for translation studies.
 *
 * The lines live in one AssocCache keyed by line number (`addr >> 6`),
 * the array every MMU cache uses: a line's set is its low bits (modulo
 * for a set count that is not a power of two, such as a 3-core L3), a
 * hit refreshes the line's LRU tick, and a fill takes the first invalid
 * way, else the least recently used one. Data caches never invalidate,
 * so that is exactly true LRU.
 */

#ifndef NECPT_MEM_CACHE_HH
#define NECPT_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mmu/assoc_cache.hh"

namespace necpt
{

/** Static geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name;          //!< e.g. "L2"
    std::uint64_t size_bytes;  //!< total capacity
    int assoc;                 //!< ways per set
    Cycles latency;            //!< round-trip hit latency (Table 2)
    int mshrs;                 //!< miss-status handling registers
};

/**
 * A single cache level.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config)
        : cfg(config), lines(config.size_bytes / line_bytes,
                             static_cast<std::size_t>(config.assoc))
    {
        NECPT_ASSERT(cfg.size_bytes % (line_bytes * cfg.assoc) == 0);
    }

    /**
     * Look up @p addr (any byte address). On a hit the line's recency is
     * updated. Statistics are charged to @p requester.
     *
     * @return true on hit.
     */
    bool
    access(Addr addr, Requester requester)
    {
        if (lines.find(addr >> line_shift)) {
            stats_[static_cast<int>(requester)].hit();
            return true;
        }
        stats_[static_cast<int>(requester)].miss();
        return false;
    }

    /** Probe without updating recency or statistics. */
    bool
    contains(Addr addr) const
    {
        return lines.peek(addr >> line_shift) != nullptr;
    }

    /** Install the line containing @p addr, evicting LRU if needed. */
    void fill(Addr addr) { lines.insert(addr >> line_shift, true); }

    const CacheConfig &config() const { return cfg; }
    const HitMiss &stats(Requester requester) const
    {
        return stats_[static_cast<int>(requester)];
    }

    void
    resetStats()
    {
        stats_[0].reset();
        stats_[1].reset();
    }

  private:
    CacheConfig cfg;
    AssocCache<bool> lines;
    HitMiss stats_[2];
};

} // namespace necpt

#endif // NECPT_MEM_CACHE_HH
