/**
 * @file
 * Flat page table: the host-side organization of the "flat nested page
 * tables" baseline (Section 9.6, Ahn et al. ISCA'12).
 *
 * The host table is one contiguous array indexed directly by the guest
 * physical page number, so translating any gPA costs exactly one memory
 * reference; combined with a 4-level guest radix table, a nested walk
 * needs at most 4 x (1 + 1) + 1 = 9 sequential references.
 */

#ifndef NECPT_PT_FLAT_HH
#define NECPT_PT_FLAT_HH

#include <cstdint>
#include <unordered_map>

#include "pt/page_table.hh"

namespace necpt
{

/**
 * A flat, direct-indexed translation array.
 */
class FlatPageTable final : public PageTable
{
  public:
    static constexpr PtKind kind = PtKind::Flat;

    /**
     * @param allocator space for the array itself
     * @param covered_bytes size of the (guest-physical) space covered
     */
    FlatPageTable(RegionAllocator &allocator, std::uint64_t covered_bytes);

    /** Install gpa -> hpa for a page of @p size. */
    void map(Addr gpa, Addr hpa, PageSize size) override;

    /** Remove the mapping containing @p gpa. */
    void unmap(Addr gpa, PageSize size) override;

    /** Functional lookup. */
    Translation lookup(Addr gpa) const override;

    /** Physical address of the entry a hardware walk would fetch. */
    Addr
    entryAddr(Addr gpa) const
    {
        return base + (gpa >> pageShift(PageSize::Page4K)) * pte_bytes;
    }

    /** Bytes reserved for the array (Section 9.5 accounting). */
    std::uint64_t structureBytes() const override { return bytes; }

    std::uint64_t mappingCount() const override { return entries.size(); }

  private:
    Addr base;
    std::uint64_t bytes;
    /**
     * Sparse backing store: key is the 4KB-granular guest frame number of
     * the page *base*; pages larger than 4KB occupy one logical record
     * here but would occupy replicated array entries in hardware.
     */
    std::unordered_map<std::uint64_t, Translation> entries;
};

} // namespace necpt

#endif // NECPT_PT_FLAT_HH
