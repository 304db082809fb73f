/**
 * @file
 * Set-associative cache tag-array model with true-LRU replacement.
 *
 * The model tracks which lines are resident (so page-walk pollution is
 * real: walker fills evict demand lines and vice versa) and per-requester
 * hit/miss statistics for the Figure 13 RPKI/MPKI characterization. Data
 * values are not stored — only addresses matter for translation studies.
 *
 * Layout: the tag array is a contiguous uint64_t vector and the
 * replacement state a parallel one-byte-per-way vector (bit 7 = valid,
 * bits 0-6 = exact LRU age within the set, 0 = MRU). Nine bytes per way
 * instead of the 24 a {tag, 64-bit timestamp, valid} struct needs, so a
 * whole 8-way set's tags fit one hardware cache line — the lookup loop
 * every simulated memory access runs touches a third of the memory it
 * used to. Age ranks are a permutation of 0..assoc-1 per set and are
 * promoted exactly like a timestamp order, so eviction decisions are
 * bit-identical to the previous tick-based implementation.
 */

#ifndef NECPT_MEM_CACHE_HH
#define NECPT_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

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
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Look up @p addr (any byte address). On a hit the line's recency is
     * updated. Statistics are charged to @p requester.
     *
     * @return true on hit.
     */
    bool
    access(Addr addr, Requester requester)
    {
        const Addr line = lineAddr(addr);
        const int way = findWay(setIndex(line), tagOf(line));
        if (way >= 0) {
            touch(setIndex(line), way);
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
        const Addr line = lineAddr(addr);
        return findWay(setIndex(line), tagOf(line)) >= 0;
    }

    /** Install the line containing @p addr, evicting LRU if needed. */
    void fill(Addr addr);

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
    /** Per-way metadata byte: valid flag plus exact LRU age. */
    static constexpr std::uint8_t valid_bit = 0x80;
    static constexpr std::uint8_t age_mask = 0x7F;

    /** The single lookup loop behind access/contains/fill:
     *  way index of @p tag within @p set, or -1 when absent. */
    int
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        // Vectorized tag compare (common/simd.hh): four ways per
        // 256-bit lane, valid bits folded from the meta row, lowest
        // matching way wins — same answer as the scalar scan.
        return simd::findTag(&tags[set * cfg.assoc],
                             &meta[set * cfg.assoc], cfg.assoc, tag,
                             valid_bit);
    }

    /** Promote @p way to MRU, ageing every way that was younger. */
    void
    touch(std::uint64_t set, int way)
    {
        std::uint8_t *meta_base = &meta[set * cfg.assoc];
        const std::uint8_t age = meta_base[way] & age_mask;
        for (int i = 0; i < cfg.assoc; ++i) {
            const std::uint8_t a = meta_base[i] & age_mask;
            if (a < age)
                meta_base[i] = static_cast<std::uint8_t>(
                    (meta_base[i] & valid_bit) | (a + 1));
        }
        meta_base[way] = static_cast<std::uint8_t>(
            (meta_base[way] & valid_bit));
    }

    std::uint64_t setIndex(Addr line) const { return (line >> line_shift) & (sets - 1); }
    std::uint64_t tagOf(Addr line) const { return line >> line_shift; }

    CacheConfig cfg;
    std::uint64_t sets;
    std::vector<std::uint64_t> tags; //!< sets * assoc, row-major by set
    std::vector<std::uint8_t> meta;  //!< parallel valid + LRU-age bytes
    HitMiss stats_[2];
};

} // namespace necpt

#endif // NECPT_MEM_CACHE_HH
