/**
 * @file
 * The software side of the machine: guest OS + hypervisor, demand
 * paging, THP policy, and page-table construction for every evaluated
 * organization (Table 1).
 *
 * A NestedSystem owns:
 *  - a guest-physical pool and a host-physical pool,
 *  - the guest page table (radix, ECPT, or HPT) built in guest-physical
 *    space,
 *  - the host page table (radix, ECPT, flat, or HPT) in host-physical
 *    space,
 *  - the registry of guest-physical ranges holding page tables (which
 *    the hypervisor always backs with 4KB pages — the Section 4.3
 *    contract that lets Step 1 probe only the PTE-hECPT).
 *
 * Both tables are held as PageTables (pt/page_table.hh); the
 * constructor is the one place that picks an organization.
 *
 * Functional translations are looked up once per access where the
 * tables allow it (DESIGN.md, "Functional translations once per
 * access"). Host bookkeeping only; no simulated structure sees it:
 *  - hostTranslatePt() answers the host translation of a guest
 *    page-table page from a dense memo indexed by 4KB page of the
 *    guest pool's region zone, which holds every gECPT way and gCWT
 *    chunk. Entries are translations, never slot addresses, so cuckoo
 *    kicks and elastic resizes cannot make one stale; only a host
 *    unmap can, and hostUnmap() drops the unmapped range. A fresh map
 *    drops nothing, since page sizes never overlap. prefetchHostPt()
 *    lets a walk start an entry's load a step before it needs it.
 *  - The residency check records the guest and host translations it
 *    found (lastResidency()); a walk of the same access reuses them
 *    while remapCount(), bumped by guestUnmap() and hostUnmap(), has
 *    not moved.
 *
 * In native (non-virtualized) configurations the guest page table is
 * built directly in host-physical space and guest translations are
 * final.
 */

#ifndef NECPT_OS_SYSTEM_HH
#define NECPT_OS_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "os/phys_pool.hh"
#include "pt/ecpt.hh"
#include "pt/flat.hh"
#include "pt/hashed.hh"
#include "pt/radix.hh"

namespace necpt
{

/** Full system configuration. */
struct SystemConfig
{
    bool virtualized = true;
    PtKind guest_kind = PtKind::Ecpt;
    PtKind host_kind = PtKind::Ecpt;

    /** Transparent Huge Pages (2MB), guest and host sides. */
    bool guest_thp = false;
    bool host_thp = true;
    /**
     * Fraction of 2MB blocks that can actually be backed by a huge
     * page when THP is on — emulating allocator fragmentation
     * (Section 10 notes even 2MB pages are often hard to find).
     */
    double guest_thp_coverage = 0.90;
    double host_thp_coverage = 0.95;

    std::uint64_t guest_phys_bytes = 6ULL << 30;
    std::uint64_t host_phys_bytes = 8ULL << 30;

    /**
     * Radix tree depth: 4 (x86-64) or 5 (LA57/Sunny Cove). With 5
     * levels a nested radix walk grows to up to 35 sequential
     * references (Section 1) while ECPT walks are unaffected.
     */
    int radix_levels = 4;

    EcptConfig guest_ecpt{};
    EcptConfig host_ecpt{};

    Addr mmap_base = 0x10'0000'0000ULL;
    std::uint64_t seed = 0xA11CE;

    /**
     * Optional fault-injection plan, threaded down to the physical
     * pools and ECPT cuckoo tables. Not owned; must outlive the
     * system (the Simulator owns it).
     */
    FaultPlan *fault_plan = nullptr;
};

/**
 * Guest OS + hypervisor + page tables for one VM (or native machine).
 */
class NestedSystem
{
  public:
    explicit NestedSystem(const SystemConfig &config);
    ~NestedSystem();

    NestedSystem(const NestedSystem &) = delete;
    NestedSystem &operator=(const NestedSystem &) = delete;

    /// @name Guest virtual address space
    /// @{
    /** Reserve a VMA of @p bytes; 2MB-aligned when THP-eligible. */
    Addr mmapRegion(std::uint64_t bytes, bool thp_eligible = true);

    /**
     * Reserve a hugetlbfs-style VMA explicitly backed by 1GB pages
     * (1GB-aligned and -granular). Exercises the PUD-level ECPT and
     * the 1GB TLB class end to end.
     */
    Addr mmapRegion1G(std::uint64_t bytes);
    /// @}

    /// @name Demand paging (functional page faults)
    /// @{
    /**
     * Make @p gva resident: installs the guest mapping (THP policy
     * decides 4KB vs 2MB) and the host backing of the touched gPA.
     * @return true when a page fault occurred.
     */
    bool ensureResident(Addr gva);

    /**
     * Fault in every page of every VMA — the steady state the paper
     * measures in (applications materialize their datasets during
     * initialization; Section 8 measures after warm-up). The tables
     * are pre-sized first (reserveForPrefault()); then a VMA no fault
     * has touched yet is written one table block at a time. The
     * result equals reserveForPrefault() followed by faulting every
     * page in address order.
     */
    void prefaultAll();

    /**
     * Announce to each table (PageTable::reserve) the blocks that
     * prefaulting the untouched VMAs inserts, per page size: on the
     * guest side exactly, from the same THP decisions the faults
     * make; on the host side only when host THP is off, where each
     * guest frame is backed by one 4KB page, as if the 4KB frames
     * packed eight to a block. While frames come from the bump
     * allocator, as before a machine's first fault, neither count
     * exceeds what the faults insert, so a pre-sized ECPT ends at the
     * size elastic growth would reach, not larger. prefaultAll()
     * calls it; a table that already holds a key ignores it.
     */
    void reserveForPrefault();

    /**
     * Complete any in-flight elastic resizes (OS background migration
     * finishing during idle time). Called at measurement boundaries.
     */
    void quiesce();
    /// @}

    /// @name Translation churn (coherence subsystem issue side)
    /// The OS/hypervisor mutations behind TLB shootdowns: ballooning,
    /// NUMA migration of the backing, THP promotion/demotion, and
    /// permission downgrades. Each returns what changed so the caller
    /// (src/coherence) can queue the matching invalidations; none of
    /// them touches any MMU cache itself.
    /// @{
    /** Outcome of a guest-side unmap. */
    struct UnmapInfo
    {
        bool ok = false;
        Addr page = invalid_addr; //!< guest-virtual page base
        Translation old_guest;    //!< mapping that was removed
    };

    /**
     * Balloon inflate: remove the guest mapping of the page containing
     * @p gva and return its guest-physical frame to the pool (and, when
     * virtualized, release the host backing of that frame). The next
     * access refaults via ensureResident — the deflate path.
     */
    UnmapInfo balloonOut(Addr gva);

    /**
     * Migrate the backing of the page containing @p gva to a fresh
     * frame (NUMA rebalance): host-level re-backing when virtualized
     * (gPA unchanged, hPA changes), a guest-level remap otherwise. The
     * translation cached in TLBs goes stale either way.
     */
    bool migratePage(Addr gva);

    /** Split a 2MB guest mapping into 512 4KB mappings (THP demotion
     *  via copy, as khugepaged's inverse). @return pages created. */
    int thpDemote(Addr gva);

    /** Collapse 512 resident 4KB guest pages into one 2MB mapping
     *  (khugepaged). @return 4KB pages absorbed (0 when the 2MB region
     *  containing @p gva is not uniformly 4KB-mapped). */
    int thpPromote(Addr gva);

    /** Permission downgrade: write-protect the guest page containing
     *  @p gva. In-place PTE RMW where the organization stores flags
     *  (ECPT); for the others the downgrade is modeled as
     *  invalidate-only. @return true when the page was mapped. */
    bool writeProtectPage(Addr gva);

    /** VMA introspection for churn victim picking (deterministic). */
    std::size_t vmaCount() const { return vmas.size(); }
    std::pair<Addr, std::uint64_t>
    vmaRange(std::size_t i) const
    {
        return {vmas[i].base, vmas[i].bytes};
    }
    /// @}

    /// @name Functional translations (used by walkers as ground truth)
    /// @{
    /** gVA -> gPA (final in native mode). */
    Translation guestTranslate(Addr gva) const;

    /**
     * gPA -> hPA. Faults the backing in on first use (page-table pages
     * are touched by walks before any demand access reaches them).
     */
    Translation hostTranslate(Addr gpa);

    /**
     * hostTranslate() of a gPA inside a guest page-table page (a gECPT
     * way or gCWT chunk, carved from the guest pool's region zone),
     * answered from the exact memo of those pages' host translations.
     * The memo grows on first use; a gPA outside the zone falls back
     * to hostTranslate().
     */
    Translation
    hostTranslatePt(Addr gpa)
    {
        const std::uint64_t page = memoPage(gpa);
        if (page < pt_memo.size()) {
            const std::uint64_t entry = pt_memo[page];
            if (entry & memo_valid)
                return memoEntry(entry);
        }
        return fillPtMemo(page, gpa);
    }

    /** Start loading @p gpa's memo entry for a hostTranslatePt() to
     *  come (a hint: no effect on any answer). */
    void
    prefetchHostPt(Addr gpa) const
    {
        const std::uint64_t page = memoPage(gpa);
        if (page < pt_memo.size())
            __builtin_prefetch(&pt_memo[page]);
    }

    /**
     * gVA all the way to hPA with the *effective* page size
     * min(guest, host) — the granularity a nested TLB entry covers.
     */
    Translation fullTranslate(Addr gva);

    /** The translations one residency check found for @p gva, and the
     *  remapCount() they are good for. */
    struct Residency
    {
        Addr gva = invalid_addr;
        Translation guest;
        Translation host;
        std::uint64_t remaps = 0;
    };

    /** What the last ensureResident() found (virtualized only; a
     *  native system records nothing). */
    const Residency &lastResidency() const { return residency; }

    /** Guest and host unmaps and remaps so far: while it stands still,
     *  every mapped page keeps its translation. */
    std::uint64_t remapCount() const { return remaps; }

    /** guestTranslate(@p gva), taken from @p res while it is still
     *  good for @p gva (same address, no unmap or remap since). */
    Translation guestTranslate(Addr gva, const Residency &res) const;

    /** fullTranslate(@p gva), composed from @p res while it is still
     *  good for @p gva. */
    Translation fullTranslate(Addr gva, const Residency &res);

    /** Does the page-table memo hold @p gpa's host translation? */
    bool hostPtMemoized(Addr gpa) const;
    /// @}

    /// @name Structure access for walkers
    /// Each returns the guest or host table as the organization a
    /// walker models, or nullptr when the configuration built another.
    /// @{
    bool virtualized() const { return cfg.virtualized; }
    RadixPageTable *guestRadix() { return guestAs<RadixPageTable>(); }
    EcptPageTable *guestEcpt() { return guestAs<EcptPageTable>(); }
    HashedPageTable *guestHpt() { return guestAs<HashedPageTable>(); }
    RadixPageTable *hostRadix() { return hostAs<RadixPageTable>(); }
    EcptPageTable *hostEcpt() { return hostAs<EcptPageTable>(); }
    FlatPageTable *hostFlat() { return hostAs<FlatPageTable>(); }
    HashedPageTable *hostHpt() { return hostAs<HashedPageTable>(); }
    const EcptPageTable *guestEcpt() const
    {
        return guestAs<const EcptPageTable>();
    }
    const EcptPageTable *hostEcpt() const
    {
        return hostAs<const EcptPageTable>();
    }

    /** Is @p gpa inside a guest page-table structure? (Section 4.3) */
    bool isPtRegion(Addr gpa) const { return pt_registry.contains(gpa); }
    /// @}

    /**
     * Cross-structure consistency audit: ECPT/CWT coherence on both
     * sides, pool accounting, and every page-table memo entry against
     * a fresh host lookup. Run after injected faults to prove the
     * design absorbed them; throws InvariantViolation otherwise.
     */
    void auditInvariants() const;

    /// @name Accounting (Section 9.5)
    /// @{
    std::uint64_t guestStructureBytes() const;
    std::uint64_t hostStructureBytes() const;
    std::uint64_t guestPteBytes() const;  //!< 8B x mappings
    std::uint64_t hostPteBytes() const;
    std::uint64_t guestFaults() const { return guest_faults; }
    std::uint64_t hostFaults() const { return host_faults; }
    PhysMemPool &hostPool() { return *host_pool; }
    PhysMemPool &guestPool() { return *guest_pool; }
    /// @}

    const SystemConfig &config() const { return cfg; }

  private:
    struct Vma
    {
        Addr base;
        std::uint64_t bytes;
        bool thp_eligible;
        bool use_1g = false;
        /** A guest fault has mapped a page here: prefault must check
         *  each page instead of writing whole blocks. */
        bool faulted = false;
    };

    Vma *vmaOf(Addr gva);

    /** THP feasibility is decided per 64MB chunk of address space. */
    static constexpr int thp_chunk_shift = 26;

    /** Deterministic per-64MB-chunk THP feasibility draw. */
    bool blockCovered(std::uint64_t chunk, double coverage,
                      std::uint64_t salt) const;

    /** The page size a guest fault at @p gva installs (THP policy,
     *  decided on first touch of its 64MB chunk). */
    PageSize guestPageSize(Addr gva, const Vma &vma);

    /** Install a guest mapping for the page containing @p gva.
     *  @return the mapping just installed. */
    Translation guestFaultIn(Addr gva, Vma &vma);

    /** The page size a host fault at @p gpa installs. */
    PageSize hostPageSize(Addr gpa);

    /** Install host backing for the page containing @p gpa.
     *  @return the mapping just installed. */
    Translation hostFaultIn(Addr gpa);

    /** Host-fault the @p pages contiguous pages of @p size from
     *  @p gpa, which share one host table block.
     *  @return the frame of the last page. */
    Addr hostMapRun(Addr gpa, int pages, PageSize size);

    /** Prefault the never-faulted @p vma one guest table block at a
     *  time, backing each block's frames on the host as it goes. */
    void prefaultBlocks(Vma &vma);

    /** Host-fault whichever of the @p count guest frames @p gpas (in
     *  mapping order) nothing backs yet, one host block per run: one
     *  PageTable::mappedMask per run of contiguous frames in one host
     *  block, and one more after a 2MB host map inside it. */
    void backFrames(const Addr *gpas, int count);

    /** Record that @p gpa's 2MB block holds a 4KB host mapping. */
    void noteHost4k(Addr gpa);

    /** ensureResident() that returns the guest mapping of @p gva: one
     *  guest and one host lookup, plus the faults it takes. */
    Translation makeResident(Addr gva);

    /// @name The one unmap per side
    /// Every unmap or remap of an existing mapping goes through these:
    /// each bumps remapCount(), and the host one drops the unmapped
    /// range from the page-table memo.
    /// @{
    /** Unmap the guest page @p g maps at @p page and free its frame. */
    void guestUnmap(Addr page, const Translation &g);

    /** Unmap the host page @p h maps at @p gpa's page and free its
     *  frame. */
    void hostUnmap(Addr gpa, const Translation &h);
    /// @}

    /** Is @p res still good for @p gva? */
    bool
    current(Addr gva, const Residency &res) const
    {
        return res.gva == gva && res.remaps == remaps;
    }

    /** The nested translation of @p gva from its guest and host
     *  mappings, at the effective page size. */
    static Translation nested(Addr gva, const Translation &g,
                              const Translation &h);

    /** @p gpa's 4KB page within the region zone: the memo index. A
     *  gPA below the zone wraps to a page past the memo's end. */
    std::uint64_t
    memoPage(Addr gpa) const
    {
        return (gpa - pt_memo_base) >> pageShift(PageSize::Page4K);
    }

    /** The host mapping a valid memo entry records. */
    static Translation
    memoEntry(std::uint64_t entry)
    {
        return {entry & ~mask(12), static_cast<PageSize>(entry >> 1 & 3),
                true};
    }

    /** Memo miss: translate @p gpa, the zone's 4KB page @p page, and
     *  record it, growing the memo over @p page first; a gPA outside
     *  the zone is only translated. */
    Translation fillPtMemo(std::uint64_t page, Addr gpa);

    /** The guest table as organization @p T, or nullptr. */
    template <class T>
    T *
    guestAs() const
    {
        return cfg.guest_kind == T::kind ? static_cast<T *>(guest_pt.get())
                                         : nullptr;
    }

    /** The host table as organization @p T, or nullptr (always when
     *  native: there is no host table). */
    template <class T>
    T *
    hostAs() const
    {
        return cfg.host_kind == T::kind ? static_cast<T *>(host_pt.get())
                                        : nullptr;
    }

    SystemConfig cfg;

    std::unique_ptr<PhysMemPool> host_pool;
    std::unique_ptr<PhysMemPool> guest_pool;
    PtRegionRegistry pt_registry;
    PtRegionRegistry host_pt_registry;
    std::unique_ptr<PtRegionAllocator> guest_pt_alloc;
    std::unique_ptr<ScatteredPtAllocator> guest_node_alloc;
    std::unique_ptr<ScatteredPtAllocator> host_node_alloc;

    std::unique_ptr<PageTable> guest_pt;
    std::unique_ptr<PageTable> host_pt; //!< null when native

    std::vector<Vma> vmas;
    Addr mmap_cursor;

    /** First-touch THP decision per guest-virtual 64MB chunk. */
    std::unordered_map<std::uint64_t, bool> guest_block_thp;
    /** First-touch THP decision per guest-physical 64MB chunk. */
    std::unordered_map<std::uint64_t, bool> host_block_thp;
    /** gPA 2MB blocks already holding a 4KB mapping (e.g. a scattered
     *  page-table node): a huge host mapping would overlap them. */
    std::unordered_set<std::uint64_t> host_blocks_with_4k;
    /** The block noteHost4k() recorded last. */
    std::uint64_t last_4k_block = ~0ULL;

    std::uint64_t guest_faults = 0;
    std::uint64_t host_faults = 0;

    /// @name Functional translations once per access
    /// @{
    /** Memo entry: the host page's frame, then the page size in bits
     *  1-2 and @ref memo_valid in bit 0; 0 is empty. */
    static constexpr std::uint64_t memo_valid = 1;
    /** The region zone's base gPA, and its size in 4KB pages (0 when
     *  native: nothing is memoized). */
    Addr pt_memo_base = 0;
    std::uint64_t pt_memo_limit = 0;
    /** One entry per 4KB page of the zone, up to the highest page
     *  looked up so far. */
    std::vector<std::uint64_t> pt_memo;

    Residency residency;
    std::uint64_t remaps = 0;
    /// @}
};

} // namespace necpt

#endif // NECPT_OS_SYSTEM_HH
