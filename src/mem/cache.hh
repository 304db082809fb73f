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
 *
 * The data caches take the array's 32-bit form: a line keeps its line
 * number divided by the set count as a 32-bit tag, and a 32-bit LRU
 * tick, 8 bytes of state where 64-bit tags and ticks take 16. A cache
 * of S sets therefore holds addresses below about 2^38 * S bytes
 * (16 TB for the L1's 64 sets); addressLimit() gives the exact bound,
 * and the simulator checks the machine's physical memory against it
 * once, when it builds the machine.
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

    /**
     * One past the highest byte address a cache of @p config can hold:
     * every line number must stay below its tag array's key limit.
     */
    static std::uint64_t
    addressLimit(const CacheConfig &config)
    {
        const std::uint64_t sets =
            config.size_bytes / (line_bytes * config.assoc);
        return Lines::keyLimit(sets) << line_shift;
    }

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
    using Lines = AssocCache<bool, std::uint32_t>;

    CacheConfig cfg;
    Lines lines;
    HitMiss stats_[2];
};

} // namespace necpt

#endif // NECPT_MEM_CACHE_HH
