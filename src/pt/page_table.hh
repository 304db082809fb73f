/**
 * @file
 * The interface every page-table organization implements (Table 1):
 * what the guest OS and the hypervisor do to a table, whatever its
 * layout. NestedSystem owns its guest and host tables through it; the
 * walkers, which model one organization's hardware, reach the
 * concrete class through NestedSystem's typed accessors.
 *
 * The optional hooks default to a table that keeps no flag word,
 * writes and reads one page at a time, has nothing to pre-size,
 * defers no work, injects no faults and has no cross-structure
 * invariant; the ECPT overrides all seven.
 */

#ifndef NECPT_PT_PAGE_TABLE_HH
#define NECPT_PT_PAGE_TABLE_HH

#include <cstdint>
#include <string>

#include "common/function_ref.hh"
#include "pt/pte.hh"

namespace necpt
{

class FaultPlan;

/** Page-table organization selector. */
enum class PtKind : std::uint8_t
{
    Radix,
    Ecpt,
    Flat, //!< host-side only (flat nested baseline, Section 9.6)
    Hpt,  //!< classic single hashed page table (Section 2.2; 4KB only)
};

/** One address space's page table, of any organization. Each
 *  implementation names its organization as a static `kind`. */
class PageTable
{
  public:
    PageTable() = default;
    virtual ~PageTable() = default;

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Install va -> pa for a page of @p size. */
    virtual void map(Addr va, Addr pa, PageSize size) = 0;

    /** Hands mapBlock() one frame per page, in address order. */
    using FrameSource = FunctionRef<Addr()>;

    /** Pages of one size that share one table block (an ECPT slot
     *  holds 8 consecutive PTEs; Section 2.3). */
    static constexpr int block_pages = 8;

    /**
     * Map the @p pages consecutive pages of @p size from @p va, all in
     * one @ref block_pages -aligned block, to frames taken from
     * @p next_frame. By default each page takes its frame and is
     * mapped before the next one, so node allocations that share the
     * frame allocator keep their order.
     */
    virtual void
    mapBlock(Addr va, int pages, PageSize size, FrameSource next_frame)
    {
        for (int i = 0; i < pages; ++i)
            map(va + static_cast<Addr>(i) * pageBytes(size), next_frame(),
                size);
    }

    /**
     * Announce @p blocks table blocks of @p size pages that a bulk
     * write (prefault) is about to insert, so a table that grows as it
     * fills can take its final size up front. By default there is
     * nothing to size.
     */
    virtual void reserve(PageSize, std::uint64_t) {}

    /** Remove the mapping of the page of @p size containing @p va. */
    virtual void unmap(Addr va, PageSize size) = 0;

    /** Functional lookup across all page sizes (no timing). */
    virtual Translation lookup(Addr va) const = 0;

    /**
     * Which of the @p pages consecutive 4KB pages from @p va, all in
     * one @ref block_pages -aligned block, are mapped at any size: bit
     * i is lookup(va + i * 4KB).valid. By default one lookup per page.
     */
    virtual std::uint32_t
    mappedMask(Addr va, int pages) const
    {
        std::uint32_t mask = 0;
        for (int i = 0; i < pages; ++i) {
            const Addr page = va + static_cast<Addr>(i)
                * pageBytes(PageSize::Page4K);
            mask |= static_cast<std::uint32_t>(lookup(page).valid) << i;
        }
        return mask;
    }

    /** Bytes of table structure (Section 9.5 accounting). */
    virtual std::uint64_t structureBytes() const = 0;

    /** Leaf mappings installed, all page sizes together. */
    virtual std::uint64_t mappingCount() const = 0;

    /**
     * Permission downgrade of the mapped page of @p size at @p va.
     * By default the table stores no flag word, so the downgrade is
     * the invalidation the caller issues. @return true when the page
     * was mapped (the caller has already checked that).
     */
    virtual bool writeProtect(Addr, PageSize) { return true; }

    /** Finish deferred background work (the ECPT's elastic resizes). */
    virtual void quiesce() {}

    /** Arm (or disarm, with nullptr) fault injection in the table. */
    virtual void setFaultPlan(FaultPlan *) {}

    /** Check the table's internal consistency; throws
     *  InvariantViolation naming @p who on the first violation. */
    virtual void auditInvariants(const std::string &) const {}
};

} // namespace necpt

#endif // NECPT_PT_PAGE_TABLE_HH
