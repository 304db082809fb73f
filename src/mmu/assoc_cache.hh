/**
 * @file
 * The one set-associative LRU array of the simulator. Every MMU
 * structure (TLBs, page-walk caches, nested TLBs, cuckoo walk caches,
 * the shortcut translation cache), the L1/L2/L3 data caches and the
 * POM-TLB store their lines here; fully associative when built with a
 * single set.
 *
 * Each set keeps its tags and its LRU ticks side by side in one row,
 * 64-byte aligned, so an 8-way set of the data caches is one host
 * cache line; the payloads sit in an array of their own. An all-ones
 * tag marks an invalid line, so a probe scans one tag row
 * (simd::findKey). The array counts no hits or misses: each owner
 * counts its own.
 *
 * One implementation serves two tag widths:
 *  - 64-bit (the default; every MMU structure): a tag is the whole
 *    key and a tick is 64 bits, 16 bytes of state per line.
 *  - 32-bit (the data caches): a tag is `key / sets` (a shift for a
 *    power-of-two set count) and a tick is 32 bits, 8 bytes per line.
 *    The row a tag sits in gives the set, so (set, tag) names the key
 *    exactly, for every key below keyLimit(). Before the counter would
 *    wrap, every set's ticks are renumbered 1..ways in their (tick,
 *    way) order, stale ticks of invalid lines included, and the
 *    counter restarts above them; relative order is all a victim
 *    choice reads, so every later victim is the one 64-bit ticks pick.
 */

#ifndef NECPT_MMU_ASSOC_CACHE_HH
#define NECPT_MMU_ASSOC_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
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
 * POM-TLB set-tagged keys) stay below 2^59, far from a 64-bit array's
 * keyLimit(); the data caches' line numbers stay below a 32-bit
 * array's, which the machine checks once when it is built.
 * @tparam ValueT payload
 * @tparam TagT tag and tick width: std::uint64_t or std::uint32_t
 */
template <typename ValueT, typename TagT = std::uint64_t>
class AssocCache
{
    static_assert(std::is_same_v<TagT, std::uint64_t>
                      || std::is_same_v<TagT, std::uint32_t>,
                  "tags are 64 or 32 bits");

  public:
    /** The tag of an invalid line; no key's tag reaches it. */
    static constexpr TagT empty_tag = ~TagT{0};

    /**
     * One past the largest key an array of @p sets sets can hold:
     * every key but the all-ones one for 64-bit tags, and for 32-bit
     * tags every key whose `key / sets` stays below the all-ones tag.
     */
    static constexpr std::uint64_t
    keyLimit(std::size_t sets)
    {
        return whole_keys ? ~std::uint64_t{0}
                          : std::uint64_t{empty_tag} * sets;
    }

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
        set_shift = pow2_sets ? static_cast<unsigned>(floorLog2(sets)) : 0;
        rows.reset(static_cast<TagT *>(::operator new[](
            2 * sets * assoc * sizeof(TagT), row_align)));
        for (std::size_t set = 0; set < sets; ++set) {
            std::fill_n(tagRow(set), assoc, empty_tag);
            std::fill_n(tickRow(set), assoc, TagT{0});
        }
        values = std::make_unique<ValueT[]>(sets * assoc);
        if constexpr (!whole_keys)
            ranks.resize(assoc);
    }

    /** Find @p key; refreshes its recency. */
    ValueT *
    find(std::uint64_t key)
    {
        const std::size_t set = setOf(key);
        const int way = wayOf(set, key);
        if (way < 0)
            return nullptr;
        tickRow(set)[way] = nextTick();
        return &values[set * assoc + static_cast<std::size_t>(way)];
    }

    /** Probe without a recency update. */
    const ValueT *
    peek(std::uint64_t key) const
    {
        const std::size_t set = setOf(key);
        const int way = wayOf(set, key);
        return way < 0
            ? nullptr
            : &values[set * assoc + static_cast<std::size_t>(way)];
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
        const std::size_t set = setOf(key);
        const TagT tag = tagOf(key);
        NECPT_ASSERT(tag != empty_tag);
        TagT *tags = tagRow(set);
        TagT *ticks = tickRow(set);
        ValueT *vals = &values[set * assoc];
        std::size_t way = 0;
        std::uint64_t way_rank = ~std::uint64_t{0};
        for (std::size_t i = 0; i < assoc; ++i) {
            if (tags[i] == tag) {
                vals[i] = value;
                ticks[i] = nextTick();
                return;
            }
            // Bit 63 puts every valid line after every invalid one;
            // ticks count finds and inserts, so they never reach it.
            const std::uint64_t rank = std::uint64_t{ticks[i]}
                | std::uint64_t{tags[i] != empty_tag} << 63;
            way = rank < way_rank ? i : way;
            way_rank = rank < way_rank ? rank : way_rank;
        }
        tags[way] = tag;
        vals[way] = value;
        ticks[way] = nextTick();
    }

    /**
     * Invalidate every line whose key lies in [@p lo, @p hi]. Surviving
     * lines keep their LRU ranks untouched — a partial invalidation
     * (shootdown) must not perturb replacement among the survivors.
     *
     * A key lives only in its one set, so a range of fewer keys than
     * sets visits just the set of each of its keys; a wider range
     * covers every set and sweeps every tag row once, a 64-bit row in
     * one simd::dropKeyRange call.
     * @return number of lines invalidated.
     */
    std::size_t
    invalidateKeys(std::uint64_t lo, std::uint64_t hi)
    {
        NECPT_ASSERT(lo <= hi && hi < keyLimit(sets));
        const std::uint64_t width = hi - lo;
        std::size_t count = 0;
        if (width < sets - 1) {
            // hi < keyLimit, so key never wraps.
            for (std::uint64_t key = lo; key <= hi; ++key) {
                const std::size_t set = setOf(key);
                const int way = wayOf(set, key);
                if (way >= 0) {
                    tagRow(set)[way] = empty_tag;
                    ++count;
                }
            }
            return count;
        }
        if constexpr (whole_keys) {
            // A 64-bit tag is its key, and hi < keyLimit keeps invalid
            // lines out of range: one kernel call sweeps a set.
            for (std::size_t set = 0; set < sets; ++set)
                count += static_cast<std::size_t>(simd::dropKeyRange(
                    tagRow(set), static_cast<int>(assoc), lo, width));
            return count;
        }
        for (std::size_t set = 0; set < sets; ++set) {
            TagT *tags = tagRow(set);
            for (std::size_t i = 0; i < assoc; ++i) {
                const bool hit = tags[i] != empty_tag
                    && keyOf(set, tags[i]) - lo <= width;
                tags[i] = hit ? empty_tag : tags[i];
                count += hit;
            }
        }
        return count;
    }

    std::size_t capacity() const { return sets * assoc; }

    /**
     * Move the LRU counter forward to @p value. Victim choices read
     * only the order of ticks, so none changes; a test reaches the
     * renumbering this way without 2^32 operations.
     */
    void
    skipTicksTo(TagT value)
    {
        NECPT_ASSERT(value >= tick);
        tick = value;
    }

  private:
    /** A 64-bit tag is the whole key; a narrower one drops the set. */
    static constexpr bool whole_keys =
        std::is_same_v<TagT, std::uint64_t>;

    static constexpr std::align_val_t row_align{64};

    /** Frees the rows with the alignment they were allocated with. */
    struct RowsDeleter
    {
        void
        operator()(TagT *rows) const
        {
            ::operator delete[](rows, row_align);
        }
    };

    std::size_t
    setOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(pow2_sets ? key & (sets - 1)
                                                  : key % sets);
    }

    TagT
    tagOf(std::uint64_t key) const
    {
        if constexpr (whole_keys)
            return key;
        else
            return static_cast<TagT>(pow2_sets ? key >> set_shift
                                               : key / sets);
    }

    /** The key a valid line of @p set with @p tag holds. */
    std::uint64_t
    keyOf(std::size_t set, TagT tag) const
    {
        if constexpr (whole_keys)
            return tag;
        else
            return pow2_sets ? std::uint64_t{tag} << set_shift | set
                             : std::uint64_t{tag} * sets + set;
    }

    TagT *tagRow(std::size_t set) const { return &rows[2 * assoc * set]; }
    TagT *tickRow(std::size_t set) const { return tagRow(set) + assoc; }

    /** The way of @p set holding @p key, or -1. */
    int
    wayOf(std::size_t set, std::uint64_t key) const
    {
        return simd::findKey(tagRow(set), static_cast<int>(assoc),
                             tagOf(key));
    }

    /** The next LRU tick; a 32-bit counter renumbers before it wraps. */
    TagT
    nextTick()
    {
        if constexpr (!whole_keys) {
            if (tick == empty_tag) [[unlikely]]
                renumberTicks();
        }
        return ++tick;
    }

    /**
     * Renumber every set's ticks 1..ways in their (tick, way) order,
     * invalid lines included, and restart the counter above them. A
     * victim is the invalid line, else the valid one, that is first in
     * that order, and every later tick is larger than every renumbered
     * one, as it would be with ticks that never wrap.
     */
    void
    renumberTicks()
    {
        for (std::size_t set = 0; set < sets; ++set) {
            TagT *row = tickRow(set);
            for (std::size_t i = 0; i < assoc; ++i) {
                TagT r = 1;
                for (std::size_t j = 0; j < assoc; ++j)
                    r += row[j] < row[i] || (row[j] == row[i] && j < i);
                ranks[i] = r;
            }
            std::copy(ranks.begin(), ranks.end(), row);
        }
        tick = static_cast<TagT>(assoc);
    }

    std::size_t assoc;
    std::size_t sets;
    /** sets is a power of two: setOf masks and tagOf shifts. */
    bool pow2_sets;
    unsigned set_shift;
    /** Per set, `assoc` tags then `assoc` ticks. */
    std::unique_ptr<TagT[], RowsDeleter> rows;
    /** Not a vector: vector<bool> has no addressable elements. */
    std::unique_ptr<ValueT[]> values;
    TagT tick = 0;
    /** renumberTicks' scratch, one set's new ticks (32-bit tags only),
     *  so a renumbering allocates nothing. */
    std::vector<TagT> ranks;
};

} // namespace necpt

#endif // NECPT_MMU_ASSOC_CACHE_HH
