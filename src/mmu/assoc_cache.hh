/**
 * @file
 * Small associative hardware-cache template used by every MMU
 * structure: TLBs, page-walk caches, nested TLBs, cuckoo walk caches
 * and the shortcut translation cache. LRU replacement; fully
 * associative when built with a single set.
 *
 * Lines are stored as parallel arrays: a packed key array (one row of
 * `ways` keys per set), the payloads, and the LRU ticks. An all-ones
 * key marks an invalid line, so a probe compares one key row and a
 * range invalidation reads 8 bytes per line.
 */

#ifndef NECPT_MMU_ASSOC_CACHE_HH
#define NECPT_MMU_ASSOC_CACHE_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace necpt
{

/**
 * @tparam KeyT lookup tag; an unsigned integer whose set is
 *         `key % sets`. Callers' keys (VPNs, radix prefixes, gPA
 *         pages, CWT entry keys) stay below 2^52, far from empty_key.
 * @tparam ValueT payload
 */
template <typename KeyT, typename ValueT>
class AssocCache
{
    static_assert(std::is_unsigned_v<KeyT>,
                  "AssocCache keys are unsigned integers");

  public:
    /** The key of an invalid line; no caller key reaches it. */
    static constexpr KeyT empty_key = ~KeyT{0};

    /**
     * @param capacity total entries
     * @param ways set associativity; 0 means fully associative
     */
    explicit AssocCache(std::size_t capacity, std::size_t ways = 0)
        : assoc(ways == 0 ? capacity : ways)
    {
        NECPT_ASSERT(capacity > 0);
        NECPT_ASSERT(assoc > 0 && assoc <= capacity);
        sets = capacity / assoc;
        NECPT_ASSERT(sets >= 1);
        keys.assign(sets * assoc, empty_key);
        values = std::make_unique<ValueT[]>(sets * assoc);
        ticks.assign(sets * assoc, 0);
    }

    /** Find @p key; refreshes recency and charges hit/miss stats. */
    ValueT *
    find(KeyT key)
    {
        const std::size_t line = lineOf(key);
        if (line == npos) {
            stats_.miss();
            return nullptr;
        }
        ticks[line] = ++tick;
        stats_.hit();
        return &values[line];
    }

    /** Probe without statistics or recency update. */
    const ValueT *
    peek(KeyT key) const
    {
        const std::size_t line = lineOf(key);
        return line == npos ? nullptr : &values[line];
    }

    /**
     * Insert (or update) @p key. The victim is an invalid line if the
     * set has one, else the smallest tick; ties go to the lowest way.
     * An invalidated line keeps its stale tick, which still orders it
     * among the set's invalid lines.
     */
    void
    insert(KeyT key, const ValueT &value)
    {
        NECPT_ASSERT(key != empty_key);
        const std::size_t base = setOf(key) * assoc;
        std::size_t line = base;
        std::uint64_t line_rank = ~std::uint64_t{0};
        for (std::size_t i = base; i < base + assoc; ++i) {
            if (keys[i] == key) {
                values[i] = value;
                ticks[i] = ++tick;
                return;
            }
            // Bit 63 puts every valid line after every invalid one;
            // ticks count finds and inserts, so they never reach it.
            const std::uint64_t rank =
                ticks[i] | std::uint64_t{keys[i] != empty_key} << 63;
            line = rank < line_rank ? i : line;
            line_rank = rank < line_rank ? rank : line_rank;
        }
        keys[line] = key;
        values[line] = value;
        ticks[line] = ++tick;
    }

    /**
     * Invalidate every line whose key lies in [@p lo, @p hi]. Surviving
     * lines keep their LRU ranks untouched — a partial invalidation
     * (shootdown) must not perturb replacement among the survivors.
     *
     * A key lives only in set `key % sets`, so a range of fewer keys
     * than sets visits just the one set of each of its keys; a wider
     * range covers every set and sweeps the key array once.
     * @return number of lines invalidated.
     */
    std::size_t
    invalidateKeys(KeyT lo, KeyT hi)
    {
        NECPT_ASSERT(lo <= hi && hi < empty_key);
        const KeyT width = hi - lo;
        std::size_t count = 0;
        if (width < sets - 1) {
            // hi < empty_key, so key never wraps.
            for (KeyT key = lo; key <= hi; ++key) {
                const std::size_t line = lineOf(key);
                if (line != npos) {
                    keys[line] = empty_key;
                    ++count;
                }
            }
            return count;
        }
        // empty_key - lo > width, so invalid lines never match.
        for (KeyT &k : keys) {
            const bool hit = static_cast<KeyT>(k - lo) <= width;
            k = hit ? empty_key : k;
            count += hit;
        }
        return count;
    }

    std::size_t capacity() const { return keys.size(); }
    const HitMiss &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t setOf(KeyT key) const
    {
        return static_cast<std::size_t>(key % sets);
    }

    /** Index of the line holding @p key, or npos. */
    std::size_t
    lineOf(KeyT key) const
    {
        const std::size_t base = setOf(key) * assoc;
        for (std::size_t i = base; i < base + assoc; ++i)
            if (keys[i] == key)
                return i;
        return npos;
    }

    std::size_t assoc;
    std::size_t sets;
    std::vector<KeyT> keys;
    /** Not a vector: vector<bool> has no addressable elements. */
    std::unique_ptr<ValueT[]> values;
    std::vector<std::uint64_t> ticks;
    std::uint64_t tick = 0;
    HitMiss stats_;
};

} // namespace necpt

#endif // NECPT_MMU_ASSOC_CACHE_HH
