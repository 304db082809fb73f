/**
 * @file
 * Classic single hashed page table (Section 2.2 background).
 *
 * One open-addressed table shared by the whole address space, 4KB pages
 * only — embodying the two traditional HPT shortcomings the paper lists:
 * collision chains cost extra probes, and a single shared table cannot
 * express multiple page sizes. Used as an instructive baseline and in
 * tests; the evaluated designs use Elastic Cuckoo tables instead.
 */

#ifndef NECPT_PT_HASHED_HH
#define NECPT_PT_HASHED_HH

#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "pt/page_table.hh"

namespace necpt
{

/**
 * Open-addressing (linear probing) hashed page table.
 */
class HashedPageTable final : public PageTable
{
  public:
    static constexpr PtKind kind = PtKind::Hpt;

    /**
     * @param allocator backing space for the slot array
     * @param slots number of slots (power of two)
     * @param seed hash-function seed
     */
    HashedPageTable(RegionAllocator &allocator, std::uint64_t slots,
                    std::uint64_t seed = 0x48505431);

    /** Insert va -> pa (4KB pages only). Grows never; may fail if full. */
    bool map(Addr va, Addr pa);

    /** PageTable::map: @p size must be 4KB and the table must have
     *  room (one shared table expresses one page size, Section 2.2). */
    void map(Addr va, Addr pa, PageSize size) override;

    /** Remove the 4KB mapping for @p va (tombstone). */
    void unmap(Addr va, PageSize size) override;

    Translation lookup(Addr va) const override { return lookup(va, nullptr); }

    /**
     * Functional lookup.
     * @param probe_addrs when non-null, receives the physical address of
     *        every slot touched while walking the collision chain.
     */
    Translation lookup(Addr va, std::vector<Addr> *probe_addrs) const;

    /** Mean probes per successful lookup observed so far. */
    double avgProbes() const;

    std::uint64_t
    structureBytes() const override
    {
        return num_slots * slot_bytes;
    }
    std::uint64_t occupancy() const { return used; }
    std::uint64_t mappingCount() const override { return used; }
    double loadFactor() const
    {
        return static_cast<double>(used) / static_cast<double>(num_slots);
    }

  private:
    static constexpr std::uint64_t slot_bytes = 16; //!< tag + pte

    struct Slot
    {
        std::uint64_t vpn = 0;
        Addr pa = invalid_addr;
        enum class State : std::uint8_t { Empty, Full, Tombstone };
        State state = State::Empty;
    };

    std::uint64_t slotOf(std::uint64_t vpn) const
    {
        return hash(vpn) & (num_slots - 1);
    }

    Addr slotAddr(std::uint64_t idx) const { return base + idx * slot_bytes; }

    HashFunction hash;
    Addr base;
    std::uint64_t num_slots;
    std::uint64_t used = 0;
    std::vector<Slot> table;

    mutable std::uint64_t probe_count = 0;
    mutable std::uint64_t lookup_count = 0;
};

} // namespace necpt

#endif // NECPT_PT_HASHED_HH
