/**
 * @file
 * Small associative hardware-cache template used by every MMU
 * structure: TLBs, page-walk caches, nested TLBs, cuckoo walk caches
 * and the shortcut translation cache. LRU replacement; fully
 * associative when built with a single set.
 */

#ifndef NECPT_MMU_ASSOC_CACHE_HH
#define NECPT_MMU_ASSOC_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace necpt
{

/**
 * @tparam KeyT lookup tag (hashable, equality-comparable)
 * @tparam ValueT payload
 */
template <typename KeyT, typename ValueT>
class AssocCache
{
  public:
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
        lines.assign(sets * assoc, Line{});
    }

    /** Find @p key; refreshes recency and charges hit/miss stats. */
    ValueT *
    find(const KeyT &key)
    {
        Line *base = setBase(key);
        for (std::size_t i = 0; i < assoc; ++i) {
            if (base[i].valid && base[i].key == key) {
                base[i].lru = ++tick;
                stats_.hit();
                return &base[i].value;
            }
        }
        stats_.miss();
        return nullptr;
    }

    /** Probe without statistics or recency update. */
    const ValueT *
    peek(const KeyT &key) const
    {
        const Line *base = setBase(key);
        for (std::size_t i = 0; i < assoc; ++i)
            if (base[i].valid && base[i].key == key)
                return &base[i].value;
        return nullptr;
    }

    /** Insert (or update) @p key, evicting LRU within its set. */
    void
    insert(const KeyT &key, const ValueT &value)
    {
        Line *base = setBase(key);
        Line *victim = nullptr;
        for (std::size_t i = 0; i < assoc; ++i) {
            if (base[i].valid && base[i].key == key) {
                base[i].value = value;
                base[i].lru = ++tick;
                return;
            }
            if (!victim
                || (!base[i].valid && victim->valid)
                || (base[i].valid == victim->valid
                    && base[i].lru < victim->lru)) {
                victim = &base[i];
            }
        }
        *victim = {key, value, ++tick, true};
    }

    /**
     * Invalidate every line matching @p pred(key, value). Surviving
     * lines keep their LRU ranks untouched — a partial invalidation
     * (shootdown) must not perturb replacement among the survivors.
     * @return number of lines invalidated.
     */
    template <typename Pred>
    std::size_t
    invalidateIf(Pred &&pred)
    {
        std::size_t count = 0;
        for (Line &line : lines) {
            if (line.valid && pred(line.key, line.value)) {
                line.valid = false;
                ++count;
            }
        }
        return count;
    }

    std::size_t capacity() const { return lines.size(); }
    const HitMiss &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    struct Line
    {
        KeyT key{};
        ValueT value{};
        std::uint64_t lru = 0;
        bool valid = false;
    };

    Line *setBase(const KeyT &key)
    {
        return &lines[(std::hash<KeyT>{}(key) % sets) * assoc];
    }
    const Line *setBase(const KeyT &key) const
    {
        return &lines[(std::hash<KeyT>{}(key) % sets) * assoc];
    }

    std::size_t assoc;
    std::size_t sets;
    std::vector<Line> lines;
    std::uint64_t tick = 0;
    HitMiss stats_;
};

} // namespace necpt

#endif // NECPT_MMU_ASSOC_CACHE_HH
