/**
 * @file
 * POM-TLB: the "very large part-of-memory TLB" baseline of Section 9.6
 * (Ryoo et al., ISCA'17). A very large set-associative TLB lives in a
 * reserved DRAM region; L2-TLB misses probe it with one memory access
 * (its lines are cacheable in L2/L3 like any data), and only POM-TLB
 * misses fall back to a full page walk. Per the paper's methodology we
 * model a perfect page-size predictor, so a probe costs a single
 * reference.
 */

#ifndef NECPT_MMU_POM_TLB_HH
#define NECPT_MMU_POM_TLB_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"
#include "common/hash.hh"
#include "common/stats.hh"
#include "pt/pte.hh"

namespace necpt
{

/**
 * In-DRAM set-associative TLB.
 */
class PomTlb
{
  public:
    /**
     * @param allocator host-physical space for the TLB array
     * @param sets number of sets (power of two)
     * @param ways associativity
     */
    PomTlb(RegionAllocator &allocator, std::uint64_t sets = 1ULL << 20,
           int ways = 4);

    /** Functional lookup; on hit also reports the entry's address. */
    struct Result
    {
        bool hit = false;
        Translation translation;
        Addr entry_addr = invalid_addr; //!< DRAM slot to fetch
    };
    Result lookup(Addr va);

    /** Entry address that a probe for @p va fetches (hit or miss). */
    Addr probeAddr(Addr va) const;

    /** Install a completed walk's translation. */
    void install(Addr va, const Translation &translation);

    /** Shootdown receive side: invalidate every entry overlapping
     *  [base, base+bytes). Walks the affected sets page by page —
     *  never the whole array. Survivors keep their LRU ranks. */
    std::size_t invalidateRange(Addr base, std::uint64_t bytes);

    const HitMiss &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    std::uint64_t structureBytes() const { return bytes; }

  private:
    struct Entry
    {
        std::uint64_t vpn = 0; //!< size-tagged VPN key
        Translation translation;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /** Invalidate the entry keyed exactly @p key, LRU-preserving. */
    bool invalidateKey(std::uint64_t key);

    /** Size-aware key: a 2MB translation occupies one entry. */
    static std::uint64_t
    keyOf(Addr va, PageSize size)
    {
        return (pageNumber(va, size) << 2)
            | static_cast<std::uint64_t>(size);
    }

    std::uint64_t setOf(std::uint64_t key) const
    {
        return hash(key) & (num_sets - 1);
    }

    HashFunction hash;
    Addr base;
    std::uint64_t num_sets;
    int num_ways;
    std::uint64_t bytes;
    std::vector<Entry> entries;
    std::uint64_t tick = 0;
    HitMiss stats_;
};

} // namespace necpt

#endif // NECPT_MMU_POM_TLB_HH
