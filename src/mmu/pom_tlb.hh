/**
 * @file
 * POM-TLB: the "very large part-of-memory TLB" baseline of Section 9.6
 * (Ryoo et al., ISCA'17). A very large set-associative TLB lives in a
 * reserved DRAM region; L2-TLB misses probe it with one memory access
 * (its lines are cacheable in L2/L3 like any data), and only POM-TLB
 * misses fall back to a full page walk. Per the paper's methodology we
 * model a perfect page-size predictor, so a probe costs a single
 * reference.
 *
 * The entries live in one AssocCache. An entry's set is a hash of its
 * size-tagged VPN, and its key carries that set index in its low
 * log2(sets) bits, below the size-tagged VPN: the array's power-of-two
 * set rule then selects the hashed set, and the key still names one
 * entry. Guest VAs stay below 2^48, so a key stays below 2^58 at the
 * default 2^20 sets.
 */

#ifndef NECPT_MMU_POM_TLB_HH
#define NECPT_MMU_POM_TLB_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/hash.hh"
#include "common/stats.hh"
#include "mmu/assoc_cache.hh"
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

    /** Functional lookup; hit or miss, also reports the address of the
     *  set the probe fetches. */
    struct Result
    {
        bool hit = false;
        Translation translation;
        Addr entry_addr = invalid_addr; //!< DRAM slot to fetch
    };
    Result lookup(Addr va);

    /** Install a completed walk's translation. */
    void install(Addr va, const Translation &translation);

    /** Shootdown receive side: invalidate every entry overlapping
     *  [base, base+bytes). Visits the affected sets page by page —
     *  never the whole array. Survivors keep their LRU ranks. */
    std::size_t invalidateRange(Addr base, std::uint64_t bytes);

    const HitMiss &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    std::uint64_t structureBytes() const { return bytes; }

  private:
    /** The size-tagged VPN (a 2MB translation occupies one entry) above
     *  its hashed set index. */
    std::uint64_t
    keyOf(std::uint64_t vpn, PageSize size) const
    {
        const std::uint64_t tag =
            vpn << 2 | static_cast<std::uint64_t>(size);
        return tag << set_bits | (hash(tag) & (num_sets - 1));
    }

    /** The DRAM address of @p key's set: a probe reads the set. */
    Addr setAddr(std::uint64_t key) const;

    HashFunction hash;
    Addr base;
    std::uint64_t num_sets;
    int set_bits;
    int num_ways;
    std::uint64_t bytes;
    AssocCache<Translation> entries;
    HitMiss stats_;
};

} // namespace necpt

#endif // NECPT_MMU_POM_TLB_HH
