/**
 * @file
 * A complete Elastic Cuckoo Page Table for one address space: one d-ary
 * elastic cuckoo table per page size (PTE-, PMD-, PUD-ECPT) plus the
 * matching Cuckoo Walk Tables (Sections 2.3 and 3).
 *
 * Both the guest and the host instantiate this class (gECPT/gCWT and
 * hECPT/hCWT); the difference is the address space their regions are
 * carved from and whether a PTE-level CWT exists (the guest never has
 * one — Section 4.2; the host has one only in the Advanced design).
 */

#ifndef NECPT_PT_ECPT_HH
#define NECPT_PT_ECPT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "pt/cuckoo.hh"
#include "pt/cwt.hh"
#include "pt/page_table.hh"

namespace necpt
{

/** A cache-line ECPT slot payload: 8 consecutive translations. */
struct PteBlock
{
    static constexpr int entries = PageTable::block_pages;
    std::array<Pte, entries> pte{};

    bool
    empty() const
    {
        for (const Pte &p : pte)
            if (p.present())
                return false;
        return true;
    }
};

/** Geometry of a full ECPT (tables + CWTs) for one address space. */
struct EcptConfig
{
    /** 2 to CwtDescriptor::max_ways (a descriptor names the way). */
    int ways = 3;
    /** Initial slots per way, per page size (Table 2). */
    std::array<std::uint64_t, num_page_sizes> initial_slots{
        16384, 16384, 8192};
    /** Load factor that triggers an elastic upsize. */
    double resize_threshold = 0.6;
    /**
     * Whether a PTE-level CWT is maintained. False for guests and for
     * the Plain design's host; true for the Advanced design's host
     * (Section 4.2).
     */
    bool has_pte_cwt = false;
    std::uint64_t seed = 0xEC9700;
};

/**
 * Elastic cuckoo page table + cuckoo walk tables for one address space.
 */
class EcptPageTable final : public PageTable
{
  public:
    static constexpr PtKind kind = PtKind::Ecpt;

    // The cuckoo tables hold non-owning references to the per-size move
    // notifiers below; relocating this object would dangle them (the
    // PageTable base deletes copy and move).
    /** @throws ConfigError for fewer than 2 or more than
     *  CwtDescriptor::max_ways ways. */
    EcptPageTable(RegionAllocator &allocator, const EcptConfig &config);

    /** Install va -> pa for a page of @p size, maintaining the CWTs:
     *  the one-page case of mapBlock(). */
    void map(Addr va, Addr pa, PageSize size) override;

    /**
     * Map up to 8 pages that share one PTE block with one cuckoo
     * upsert standing for one write per page, and one counted
     * has-smaller update per larger CWT level. The block's frames are
     * taken first: tables and CWT chunks come from region space, never
     * from the frame allocator, so no address moves. The table, the
     * CWTs and every counter end as after one map() per page.
     */
    void mapBlock(Addr va, int pages, PageSize size,
                  FrameSource next_frame) override;

    /** Pre-size the empty size-@p size table for @p blocks blocks
     *  (ElasticCuckooTable::reserve); the CWTs are dense and need no
     *  sizing. */
    void
    reserve(PageSize size, std::uint64_t blocks) override
    {
        tableOf(size).reserve(blocks);
    }

    /** Remove the mapping of the page containing @p va. */
    void unmap(Addr va, PageSize size) override;

    /** Permission downgrade: clear the writable bit of the PTE mapping
     *  @p va in place. @return true when such a mapping existed. */
    bool writeProtect(Addr va, PageSize size) override;

    /**
     * Functional lookup across all page sizes. Once a 2MB or 1GB page
     * exists, the PMD-CWT descriptor of @p va picks the one table to
     * probe (at 2MB, the one way), as the walker's plan does; before
     * that only the 4KB table is probed. DESIGN.md, "Functional
     * lookups read the CWT first", has why that is exact.
     */
    Translation lookup(Addr va) const override;

    /**
     * One PTE-ECPT find answers every requested page of the block; the
     * 2MB and 1GB tables are asked only when one of them is unmapped
     * at 4KB, once for all of them, since the block lies in one 2MB
     * page and one 1GB page.
     */
    std::uint32_t mappedMask(Addr va, int pages) const override;

    /** Lookup restricted to one page size; also reports the way. */
    struct SizedResult
    {
        Translation translation;
        int way = -1;
        Addr slot_addr = invalid_addr;
    };
    SizedResult lookupSized(Addr va, PageSize size) const;

    /** The block key for @p va in the size-@p size table. */
    std::uint64_t
    blockKey(Addr va, PageSize size) const
    {
        return pageNumber(va, size) >> 3;
    }

    /**
     * Hardware probe plan for the size-@p size table: slot addresses to
     * fetch for @p va, restricted to @p way_mask.
     */
    void
    probeAddrs(Addr va, PageSize size, unsigned way_mask,
               std::vector<Addr> &out) const
    {
        tableOf(size).probeAddrs(blockKey(va, size), way_mask, out);
    }

    /** All-ways mask for this table's geometry. */
    unsigned allWays() const { return (1u << cfg.ways) - 1; }

    /// @name Component access (walkers, OS, statistics)
    /// @{
    ElasticCuckooTable<PteBlock> &tableOf(PageSize size)
    {
        return *tables[static_cast<int>(size)];
    }
    const ElasticCuckooTable<PteBlock> &tableOf(PageSize size) const
    {
        return *tables[static_cast<int>(size)];
    }
    CuckooWalkTable *cwtOf(PageSize size)
    {
        return cwts[static_cast<int>(size)].get();
    }
    const CuckooWalkTable *cwtOf(PageSize size) const
    {
        return cwts[static_cast<int>(size)].get();
    }
    /// @}

    /** Does this table maintain a PTE-level CWT? */
    bool hasPteCwt() const { return cfg.has_pte_cwt; }

    /** Arm (or disarm, with nullptr) fault injection in every
     *  underlying cuckoo table. */
    void setFaultPlan(FaultPlan *plan) override;

    /** Attach the event tracer to every underlying cuckoo table. */
    void setTracer(TraceBuffer *tracer);

    /**
     * Register per-size cuckoo accounting under
     * "<prefix>cuckoo.<pte|pmd|pud>.*" plus the "<prefix>cuckoo.kicks"
     * aggregate (total displacements across the three tables).
     */
    void registerMetrics(MetricsRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Cross-check ECPT/CWT consistency — the Section 4.4 staleness
     * argument made executable. For every resident block (both
     * generations of every table) the matching CWT descriptor must be
     * present and name the way that actually holds the block, and no
     * table may have parked (homeless) entries or a key resident in
     * both generations. Conversely, every present PMD/PUD descriptor
     * must name a resident page in that way, which lookup() relies
     * on. Throws InvariantViolation naming @p who and the first
     * offending block.
     */
    void auditInvariants(const std::string &who) const override;

    /**
     * Complete all in-flight elastic resizes — what the OS's
     * background migration finishes during idle periods. (CWTs are
     * dense and never resize.)
     */
    void
    quiesce() override
    {
        for (int s = 0; s < num_page_sizes; ++s)
            tables[s]->finishResize();
    }

    /** Bytes of all tables + CWTs (Section 9.5 accounting). */
    std::uint64_t structureBytes() const override;

    /** Bytes of CWTs alone. */
    std::uint64_t cwtBytes() const;

    /** Total mapped pages of @p size. */
    std::uint64_t mappingCount(PageSize size) const
    {
        return mapped[static_cast<int>(size)];
    }

    /** Total mapped pages of every size. */
    std::uint64_t
    mappingCount() const override
    {
        std::uint64_t count = 0;
        for (const std::uint64_t n : mapped)
            count += n;
        return count;
    }

    const EcptConfig &config() const { return cfg; }

  private:
    /** Would a fresh page of @p size at @p va materialize a CWT chunk
     *  at a larger level? */
    bool opensLargerCwtChunk(Addr va, PageSize size) const;

    /** Refresh the CWT way bits after @p block settled in @p way. */
    void noteBlockPlacement(PageSize size, std::uint64_t key,
                            const PteBlock &block, int way);

    /** Persistent callee behind each table's MoveCallback (the
     *  FunctionRef contract: the closure state lives here, not in a
     *  temporary lambda). */
    struct MoveNotifier
    {
        EcptPageTable *owner = nullptr;
        PageSize size{};

        void
        operator()(std::uint64_t key, const PteBlock &block, int way)
        {
            owner->noteBlockPlacement(size, key, block, way);
        }
    };

    EcptConfig cfg;
    std::array<MoveNotifier, num_page_sizes> move_notifiers;
    std::array<std::unique_ptr<ElasticCuckooTable<PteBlock>>,
               num_page_sizes> tables;
    std::array<std::unique_ptr<CuckooWalkTable>, num_page_sizes> cwts;
    std::array<std::uint64_t, num_page_sizes> mapped{};
};

} // namespace necpt

#endif // NECPT_PT_ECPT_HH
