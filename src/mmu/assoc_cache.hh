/**
 * @file
 * The one set-associative LRU array of the simulator. Every MMU
 * structure (TLBs, page-walk caches, nested TLBs, cuckoo walk caches,
 * the shortcut translation cache), the L1/L2/L3 data caches and the
 * POM-TLB store their lines here; fully associative when built with a
 * single set.
 *
 * Lines are stored as parallel arrays: a packed key array (one row of
 * `ways` keys per set), the payloads, and the LRU ticks. An all-ones
 * key marks an invalid line, so a probe scans one key row
 * (simd::findKey) and a range invalidation reads 8 bytes per line.
 * The array counts no hits or misses: each owner counts its own.
 */

#ifndef NECPT_MMU_ASSOC_CACHE_HH
#define NECPT_MMU_ASSOC_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/simd.hh"

namespace necpt
{

/**
 * Keys are unsigned 64-bit integers; a key's set is its low bits for a
 * power-of-two set count and `key % sets` otherwise. Callers' keys
 * (VPNs, radix prefixes, gPA pages, CWT entry keys, line numbers,
 * POM-TLB set-tagged keys) stay below 2^59, far from empty_key.
 * @tparam ValueT payload
 */
template <typename ValueT>
class AssocCache
{
  public:
    /** The key of an invalid line; no caller key reaches it. */
    static constexpr std::uint64_t empty_key = ~std::uint64_t{0};

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
        pow2_sets = isPowerOf2(sets);
        keys.assign(sets * assoc, empty_key);
        values = std::make_unique<ValueT[]>(sets * assoc);
        ticks.assign(sets * assoc, 0);
    }

    /** Find @p key; refreshes its recency. */
    ValueT *
    find(std::uint64_t key)
    {
        const std::size_t line = lineOf(key);
        if (line == npos)
            return nullptr;
        ticks[line] = ++tick;
        return &values[line];
    }

    /** Probe without a recency update. */
    const ValueT *
    peek(std::uint64_t key) const
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
    insert(std::uint64_t key, const ValueT &value)
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
     * A key lives only in its one set, so a range of fewer keys than
     * sets visits just the set of each of its keys; a wider range
     * covers every set and sweeps the key array once.
     * @return number of lines invalidated.
     */
    std::size_t
    invalidateKeys(std::uint64_t lo, std::uint64_t hi)
    {
        NECPT_ASSERT(lo <= hi && hi < empty_key);
        const std::uint64_t width = hi - lo;
        std::size_t count = 0;
        if (width < sets - 1) {
            // hi < empty_key, so key never wraps.
            for (std::uint64_t key = lo; key <= hi; ++key) {
                const std::size_t line = lineOf(key);
                if (line != npos) {
                    keys[line] = empty_key;
                    ++count;
                }
            }
            return count;
        }
        // empty_key - lo > width, so invalid lines never match.
        for (std::uint64_t &k : keys) {
            const bool hit = k - lo <= width;
            k = hit ? empty_key : k;
            count += hit;
        }
        return count;
    }

    std::size_t capacity() const { return keys.size(); }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t
    setOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(pow2_sets ? key & (sets - 1)
                                                  : key % sets);
    }

    /** Index of the line holding @p key, or npos. */
    std::size_t
    lineOf(std::uint64_t key) const
    {
        const std::size_t base = setOf(key) * assoc;
        const int way =
            simd::findKey(&keys[base], static_cast<int>(assoc), key);
        return way < 0 ? npos : base + static_cast<std::size_t>(way);
    }

    std::size_t assoc;
    std::size_t sets;
    /** sets is a power of two: setOf masks instead of dividing. */
    bool pow2_sets;
    std::vector<std::uint64_t> keys;
    /** Not a vector: vector<bool> has no addressable elements. */
    std::unique_ptr<ValueT[]> values;
    std::vector<std::uint64_t> ticks;
    std::uint64_t tick = 0;
};

} // namespace necpt

#endif // NECPT_MMU_ASSOC_CACHE_HH
