#include "os/system.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"

namespace necpt
{

NestedSystem::NestedSystem(const SystemConfig &config)
    : cfg(config), mmap_cursor(config.mmap_base)
{
    if (cfg.radix_levels != 4 && cfg.radix_levels != 5)
        throw ConfigError(strfmt("radix levels must be 4 or 5, got %d",
                                 cfg.radix_levels));
    host_pool =
        std::make_unique<PhysMemPool>(0, cfg.host_phys_bytes, "host-phys");
    if (cfg.virtualized)
        guest_pool = std::make_unique<PhysMemPool>(0, cfg.guest_phys_bytes,
                                                   "guest-phys");

    // Guest page tables live in guest-physical space (or directly in
    // host-physical space when native). Their regions are registered so
    // the hypervisor backs them with 4KB pages (Section 4.3).
    PhysMemPool &guest_space = cfg.virtualized ? *guest_pool : *host_pool;
    guest_pt_alloc =
        std::make_unique<PtRegionAllocator>(guest_space, pt_registry);
    guest_node_alloc =
        std::make_unique<ScatteredPtAllocator>(guest_space, pt_registry);

    switch (cfg.guest_kind) {
      case PtKind::Radix:
        // Radix nodes come from the general page allocator, scattered
        // among data frames — as real kernels allocate them.
        guest_pt = std::make_unique<RadixPageTable>(*guest_node_alloc,
                                                    cfg.radix_levels);
        break;
      case PtKind::Ecpt: {
        EcptConfig ecfg = cfg.guest_ecpt;
        ecfg.has_pte_cwt = false; // the guest never keeps a PTE CWT
        guest_pt = std::make_unique<EcptPageTable>(*guest_pt_alloc, ecfg);
        break;
      }
      case PtKind::Flat:
        throw ConfigError("flat page tables are host-side only");
      case PtKind::Hpt: {
        // Classic single HPT (Section 2.2): one table, 4KB pages only,
        // sized up front to keep the load factor moderate.
        std::uint64_t slots = 2;
        while (slots < (cfg.guest_phys_bytes >> 12))
            slots <<= 1;
        guest_pt = std::make_unique<HashedPageTable>(*guest_pt_alloc,
                                                     slots, 0x6857);
        break;
      }
    }

    if (cfg.virtualized) {
        pt_memo_base = guest_pool->regionZoneBase();
        pt_memo_limit = (cfg.guest_phys_bytes - pt_memo_base)
            >> pageShift(PageSize::Page4K);
        host_node_alloc = std::make_unique<ScatteredPtAllocator>(
            *host_pool, host_pt_registry);
        switch (cfg.host_kind) {
          case PtKind::Radix:
            host_pt = std::make_unique<RadixPageTable>(*host_node_alloc,
                                                       cfg.radix_levels);
            break;
          case PtKind::Ecpt:
            host_pt =
                std::make_unique<EcptPageTable>(*host_pool, cfg.host_ecpt);
            break;
          case PtKind::Flat:
            host_pt = std::make_unique<FlatPageTable>(
                *host_pool, cfg.guest_phys_bytes);
            break;
          case PtKind::Hpt: {
            std::uint64_t slots = 2;
            while (slots < (cfg.guest_phys_bytes >> 12) * 2)
                slots <<= 1;
            host_pt = std::make_unique<HashedPageTable>(*host_pool, slots,
                                                        0x7857);
            break;
          }
        }
    }

    // Arm fault injection only after the machine is built: start-up
    // allocations (initial ways, CWT chunks) are not interesting
    // corner cases — pressure during operation is.
    if (cfg.fault_plan) {
        host_pool->setFaultPlan(cfg.fault_plan);
        if (guest_pool)
            guest_pool->setFaultPlan(cfg.fault_plan);
        guest_pt->setFaultPlan(cfg.fault_plan);
        if (host_pt)
            host_pt->setFaultPlan(cfg.fault_plan);
    }
}

void
NestedSystem::auditInvariants() const
{
    guest_pt->auditInvariants("guest");
    if (host_pt)
        host_pt->auditInvariants("host");
    for (const PhysMemPool *pool : {host_pool.get(), guest_pool.get()}) {
        if (pool && pool->usedBytes() > pool->capacityBytes())
            throw InvariantViolation(strfmt(
                "pool '%s': accounting says %llu bytes used of %llu "
                "capacity", pool->name().c_str(),
                (unsigned long long)pool->usedBytes(),
                (unsigned long long)pool->capacityBytes()));
    }
    for (std::size_t page = 0; page < pt_memo.size(); ++page) {
        if (!(pt_memo[page] & memo_valid))
            continue;
        const Addr gpa = pt_memo_base
            + static_cast<Addr>(page) * pageBytes(PageSize::Page4K);
        const Translation want = host_pt->lookup(gpa);
        const Translation have = memoEntry(pt_memo[page]);
        if (!want.valid || want.pa != have.pa || want.size != have.size)
            throw InvariantViolation(strfmt(
                "page-table memo: gPA 0x%llx memoized at hPA 0x%llx, "
                "host table says %s",
                (unsigned long long)gpa, (unsigned long long)have.pa,
                want.valid ? strfmt("hPA 0x%llx (%s)",
                                    (unsigned long long)want.pa,
                                    pageSizeName(want.size))
                                 .c_str()
                           : "unmapped"));
    }
}

NestedSystem::~NestedSystem() = default;

Addr
NestedSystem::mmapRegion(std::uint64_t bytes, bool thp_eligible)
{
    const auto align = thp_eligible ? pageBytes(PageSize::Page2M)
                                    : pageBytes(PageSize::Page4K);
    const Addr base = alignUp(mmap_cursor, align);
    mmap_cursor = base + alignUp(bytes, align);
    vmas.push_back({base, alignUp(bytes, align), thp_eligible});
    return base;
}

Addr
NestedSystem::mmapRegion1G(std::uint64_t bytes)
{
    const auto align = pageBytes(PageSize::Page1G);
    const Addr base = alignUp(mmap_cursor, align);
    mmap_cursor = base + alignUp(bytes, align);
    vmas.push_back({base, alignUp(bytes, align), false, true});
    return base;
}

NestedSystem::Vma *
NestedSystem::vmaOf(Addr gva)
{
    for (Vma &vma : vmas)
        if (gva >= vma.base && gva < vma.base + vma.bytes)
            return &vma;
    return nullptr;
}

bool
NestedSystem::blockCovered(std::uint64_t chunk, double coverage,
                           std::uint64_t salt) const
{
    // Deterministic per-chunk hash draw (stride patterns would alias
    // with strided workloads).
    std::uint64_t sm = chunk ^ (cfg.seed * 0x9E3779B97F4A7C15ULL) ^ salt;
    const auto draw = splitmix64(sm);
    return static_cast<double>(draw >> 11) * 0x1.0p-53 < coverage;
}

PageSize
NestedSystem::guestPageSize(Addr gva, const Vma &vma)
{
    // Explicit 1GB (hugetlbfs-style) regions bypass the THP policy.
    if (vma.use_1g)
        return PageSize::Page1G;

    // THP feasibility is decided per contiguous 64MB chunk: real
    // allocators succeed or fail in zones rather than salt-and-pepper
    // at 2MB granularity, and 64MB keeps the coverage fraction
    // meaningful even for sub-GB arrays.
    const auto region = gva >> thp_chunk_shift;
    bool use_thp = false;
    if (cfg.guest_thp && vma.thp_eligible) {
        auto it = guest_block_thp.find(region);
        if (it == guest_block_thp.end()) {
            use_thp =
                blockCovered(region, cfg.guest_thp_coverage, 0x6E57);
            guest_block_thp.emplace(region, use_thp);
        } else {
            use_thp = it->second;
        }
    }
    return use_thp ? PageSize::Page2M : PageSize::Page4K;
}

Translation
NestedSystem::guestFaultIn(Addr gva, Vma &vma)
{
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    ++guest_faults;
    vma.faulted = true;
    const PageSize size = guestPageSize(gva, vma);
    const Addr frame = frames.allocFrame(size);
    guest_pt->map(pageBase(gva, size), frame, size);
    return {frame, size, true};
}

PageSize
NestedSystem::hostPageSize(Addr gpa)
{
    // Page-table regions are always backed by 4KB pages (Section 4.3).
    if (isPtRegion(gpa))
        return PageSize::Page4K;

    // Per-64MB-chunk decision, as on the guest side: coarse enough to
    // keep regions size-uniform for the CWT summaries, fine enough
    // that the configured coverage leaves a real 4KB residue (the
    // Figure-12 structure).
    const auto region = gpa >> thp_chunk_shift;
    bool use_thp = false;
    if (cfg.host_thp) {
        auto it = host_block_thp.find(region);
        if (it == host_block_thp.end()) {
            use_thp =
                blockCovered(region, cfg.host_thp_coverage, 0x5A17);
            host_block_thp.emplace(region, use_thp);
        } else {
            use_thp = it->second;
        }
    }

    // A 2MB mapping may not overlap an existing 4KB one (a scattered
    // page-table node faulted in earlier).
    if (use_thp
        && host_blocks_with_4k.count(gpa >> pageShift(PageSize::Page2M)))
        use_thp = false;
    return use_thp ? PageSize::Page2M : PageSize::Page4K;
}

Translation
NestedSystem::hostFaultIn(Addr gpa)
{
    const PageSize size = hostPageSize(gpa);
    return {hostMapRun(gpa, 1, size), size, true};
}

Addr
NestedSystem::hostMapRun(Addr gpa, int pages, PageSize size)
{
    NECPT_ASSERT(cfg.virtualized);
    Addr frame = invalid_addr;
    auto next_frame = [&] {
        ++host_faults;
        return frame = host_pool->allocFrame(size);
    };
    host_pt->mapBlock(pageBase(gpa, size), pages, size, next_frame);
    if (size == PageSize::Page4K)
        noteHost4k(gpa);
    return frame;
}

void
NestedSystem::noteHost4k(Addr gpa)
{
    // Faults arrive in address order, so consecutive 4KB backings
    // mostly share a 2MB block; the set only grows, so the last block
    // recorded is always still in it.
    const std::uint64_t block = gpa >> pageShift(PageSize::Page2M);
    if (block == last_4k_block)
        return;
    host_blocks_with_4k.insert(block);
    last_4k_block = block;
}

void
NestedSystem::guestUnmap(Addr page, const Translation &g)
{
    ++remaps;
    guest_pt->unmap(page, g.size);
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    frames.freeFrame(g.pa, g.size);
}

void
NestedSystem::hostUnmap(Addr gpa, const Translation &h)
{
    ++remaps;
    const Addr page = pageBase(gpa, h.size);
    host_pt->unmap(page, h.size);
    host_pool->freeFrame(h.pa, h.size);
    // Drop the memo entries of the unmapped page, as far as the memo
    // has grown over it.
    const Addr end = page + pageBytes(h.size);
    if (end <= pt_memo_base)
        return;
    const std::uint64_t first = memoPage(std::max(page, pt_memo_base));
    const std::uint64_t last =
        std::min<std::uint64_t>(memoPage(end), pt_memo.size());
    for (std::uint64_t i = first; i < last; ++i)
        pt_memo[i] = 0;
}

NestedSystem::UnmapInfo
NestedSystem::balloonOut(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return {};
    const UnmapInfo info{true, pageBase(gva, g.size), g};
    guestUnmap(info.page, g);
    if (!cfg.virtualized)
        return info;
    // The balloon driver hands the freed guest-physical frame to the
    // hypervisor, which drops its backing. Release every host page
    // covering the frame; a host huge page may also back neighboring
    // gPAs — they simply refault on next use (no data to preserve in
    // this model).
    constexpr PageSize base = PageSize::Page4K;
    Addr gpa = info.old_guest.pa;
    const Addr end = gpa + pageBytes(info.old_guest.size);
    while (gpa < end) {
        const Translation h = host_pt->lookup(gpa);
        if (h.valid) {
            hostUnmap(gpa, h);
            gpa = pageBase(gpa, h.size) + pageBytes(h.size);
            continue;
        }
        // Unbacked: one query covers the rest of this table block, and
        // the walk steps straight to its next backed page or past the
        // block. (Only a 4KB guest page ends inside a block, and it is
        // done after its one page.)
        gpa += pageBytes(base);
        const int in_block = static_cast<int>(
            pageNumber(gpa, base) % PageTable::block_pages);
        if (gpa >= end || in_block == 0)
            continue;
        const int left = PageTable::block_pages - in_block;
        const std::uint32_t backed = host_pt->mappedMask(gpa, left);
        gpa += static_cast<Addr>(backed ? std::countr_zero(backed) : left)
            * pageBytes(base);
    }
    return info;
}

bool
NestedSystem::migratePage(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return false;
    if (!cfg.virtualized) {
        // Native: move the page to a fresh frame. Allocate before
        // freeing so the allocator cannot hand the same frame back.
        const Addr page = pageBase(gva, g.size);
        const Addr fresh = host_pool->allocFrame(g.size);
        guestUnmap(page, g);
        guest_pt->map(page, fresh, g.size);
        return true;
    }
    // Virtualized: the hypervisor re-backs the guest-physical page —
    // gPA stays, hPA changes, and every cached {gVA, hPA} pair goes
    // stale (the HATRIC motivation case).
    const Addr gpa = g.apply(gva);
    const Translation h = host_pt->lookup(gpa);
    if (!h.valid)
        return false;
    const Addr fresh = host_pool->allocFrame(h.size);
    hostUnmap(gpa, h);
    host_pt->map(pageBase(gpa, h.size), fresh, h.size);
    return true;
}

int
NestedSystem::thpDemote(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid || g.size != PageSize::Page2M)
        return 0;
    const Addr page = pageBase(gva, PageSize::Page2M);
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    // The region is fragmented now: future faults here must stay 4KB,
    // or a fresh 2MB mapping could overlap the split pieces.
    guest_block_thp[page >> thp_chunk_shift] = false;
    // Copy-based split: the huge frame is released and each 4KB piece
    // re-lands in its own frame (keeps pool accounting size-exact).
    guestUnmap(page, g);
    const int pieces = static_cast<int>(pageBytes(PageSize::Page2M)
                                        / pageBytes(PageSize::Page4K));
    for (int i = 0; i < pieces; ++i) {
        const Addr va = page
            + static_cast<Addr>(i) * pageBytes(PageSize::Page4K);
        guest_pt->map(va, frames.allocFrame(PageSize::Page4K),
                      PageSize::Page4K);
    }
    return pieces;
}

int
NestedSystem::thpPromote(Addr gva)
{
    const Addr region = pageBase(gva, PageSize::Page2M);
    const int pieces = static_cast<int>(pageBytes(PageSize::Page2M)
                                        / pageBytes(PageSize::Page4K));
    // Collapse only a uniformly 4KB-mapped region (khugepaged's
    // eligibility check).
    for (int i = 0; i < pieces; ++i) {
        const Addr va = region
            + static_cast<Addr>(i) * pageBytes(PageSize::Page4K);
        const Translation t = guestTranslate(va);
        if (!t.valid || t.size != PageSize::Page4K)
            return 0;
    }
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    const Addr huge = frames.allocFrame(PageSize::Page2M);
    for (int i = 0; i < pieces; ++i) {
        const Addr va = region
            + static_cast<Addr>(i) * pageBytes(PageSize::Page4K);
        guestUnmap(va, guestTranslate(va));
    }
    guest_pt->map(region, huge, PageSize::Page2M);
    return pieces;
}

bool
NestedSystem::writeProtectPage(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return false;
    return guest_pt->writeProtect(pageBase(gva, g.size), g.size);
}

bool
NestedSystem::ensureResident(Addr gva)
{
    const std::uint64_t faults = guest_faults + host_faults;
    makeResident(gva);
    return guest_faults + host_faults != faults;
}

Translation
NestedSystem::makeResident(Addr gva)
{
    Translation g = guestTranslate(gva);
    if (!g.valid) {
        Vma *vma = vmaOf(gva);
        if (!vma)
            throw ConfigError(strfmt(
                "access to unmapped guest VA 0x%llx",
                static_cast<unsigned long long>(gva)));
        g = guestFaultIn(gva, *vma);
    }
    if (cfg.virtualized) {
        const Addr gpa = g.apply(gva);
        Translation h = host_pt->lookup(gpa);
        if (!h.valid)
            h = hostFaultIn(gpa);
        residency = {gva, g, h, remaps};
    }
    return g;
}

void
NestedSystem::prefaultAll()
{
    reserveForPrefault();
    for (Vma &vma : vmas) {
        if (!vma.faulted) {
            prefaultBlocks(vma);
            continue;
        }
        // Walk by mapped-page stride so a 2MB THP mapping advances
        // the cursor by 2MB.
        for (Addr va = vma.base; va < vma.base + vma.bytes;)
            va += pageBytes(makeResident(va).size);
    }
    // Let background migration finish: measurement starts from a
    // quiesced steady state (in-flight resizes would otherwise double
    // every probe forever, since migration progresses on inserts).
    quiesce();
}

void
NestedSystem::reserveForPrefault()
{
    std::array<std::uint64_t, num_page_sizes> guest_blocks{};
    // The last block counted per size: VMAs come in address order, and
    // two of them may share a block.
    std::array<std::uint64_t, num_page_sizes> last_block;
    last_block.fill(~0ULL);
    // Host blocks, one 4KB backing per guest frame: a huge frame's
    // backing has a block to itself, and the 4KB frames between huge
    // ones come from the bump allocator in one run.
    std::uint64_t host_blocks = 0;
    std::uint64_t run_4k = 0;
    const auto packed = [](std::uint64_t frames) {
        return (frames + PageTable::block_pages - 1)
            / PageTable::block_pages;
    };
    constexpr Addr chunk_bytes = Addr{1} << thp_chunk_shift;
    for (const Vma &vma : vmas) {
        if (vma.faulted)
            continue;
        const Addr end = vma.base + vma.bytes;
        // One page size per 64MB chunk (a 1GB VMA is all 1GB pages).
        for (Addr va = vma.base; va < end;) {
            const PageSize size = guestPageSize(va, vma);
            const Addr stop = vma.use_1g
                ? end
                : std::min(alignDown(va, chunk_bytes) + chunk_bytes, end);
            const int s = static_cast<int>(size);
            const std::uint64_t first =
                pageNumber(va, size) / PageTable::block_pages;
            const std::uint64_t last =
                pageNumber(stop - 1, size) / PageTable::block_pages;
            guest_blocks[s] += last - first + (first != last_block[s]);
            last_block[s] = last;
            const std::uint64_t pages = (stop - va) >> pageShift(size);
            if (size == PageSize::Page4K) {
                run_4k += pages;
            } else {
                host_blocks += packed(run_4k) + pages;
                run_4k = 0;
            }
            va = stop;
        }
    }
    host_blocks += packed(run_4k);
    for (const PageSize size : all_page_sizes)
        guest_pt->reserve(size, guest_blocks[static_cast<int>(size)]);
    if (cfg.virtualized && !cfg.host_thp)
        host_pt->reserve(PageSize::Page4K, host_blocks);
}

void
NestedSystem::prefaultBlocks(Vma &vma)
{
    PhysMemPool &frames = cfg.virtualized ? *guest_pool : *host_pool;
    const Addr end = vma.base + vma.bytes;
    std::array<Addr, PageTable::block_pages> gpas{};
    for (Addr va = vma.base; va < end;) {
        // Page sizes change only at 64MB boundaries, and the cursor
        // stays aligned to the size in force.
        const PageSize size = guestPageSize(va, vma);
        const std::uint64_t block_bytes =
            PageTable::block_pages * pageBytes(size);
        const Addr block_end =
            std::min(alignDown(va, block_bytes) + block_bytes, end);
        NECPT_ASSERT(pageOffset(va, size) == 0
                     && pageOffset(block_end, size) == 0);
        int taken = 0;
        auto next_frame = [&] {
            ++guest_faults;
            return gpas[taken++] = frames.allocFrame(size);
        };
        guest_pt->mapBlock(
            va, static_cast<int>((block_end - va) >> pageShift(size)),
            size, next_frame);
        if (cfg.virtualized)
            backFrames(gpas.data(), taken);
        va = block_end;
    }
    vma.faulted = true;
}

void
NestedSystem::backFrames(const Addr *gpas, int count)
{
    constexpr PageSize base = PageSize::Page4K;
    for (int i = 0; i < count;) {
        // The frames from i on that are contiguous and share one 4KB
        // host block: one query says which of them a host 2MB page or
        // an earlier backing (a recycled frame) already covers.
        const Addr gpa = gpas[i];
        const int room = PageTable::block_pages
            - static_cast<int>(pageNumber(gpa, base)
                               % PageTable::block_pages);
        int n = 1;
        while (n < room && i + n < count
               && gpas[i + n] == gpa + n * pageBytes(base))
            ++n;
        std::uint32_t backed = host_pt->mappedMask(gpa, n);
        for (int j = 0; j < n;) {
            if (backed >> j & 1) {
                ++j;
                continue;
            }
            const Addr at = gpa + j * pageBytes(base);
            const PageSize size = hostPageSize(at);
            int run = 1;
            // A 4KB backing marks its 2MB block (noteHost4k), which
            // pins every later fault there to 4KB too: extend the run
            // over the unbacked frames that follow.
            if (size == base) {
                while (j + run < n && !(backed >> (j + run) & 1))
                    ++run;
            }
            hostMapRun(at, run, size);
            j += run;
            // A 4KB map changes no other frame's bit; a 2MB one covers
            // the rest of the block, so ask again.
            if (size != base && j < n)
                backed = host_pt->mappedMask(gpa + j * pageBytes(base),
                                             n - j)
                    << j;
        }
        i += n;
    }
}

void
NestedSystem::quiesce()
{
    guest_pt->quiesce();
    if (host_pt)
        host_pt->quiesce();
}

Translation
NestedSystem::guestTranslate(Addr gva) const
{
    return guest_pt->lookup(gva);
}

Translation
NestedSystem::hostTranslate(Addr gpa)
{
    if (!cfg.virtualized) {
        // Identity: gPA is final.
        return {pageBase(gpa, PageSize::Page4K), PageSize::Page4K, true};
    }
    Translation h = host_pt->lookup(gpa);
    if (!h.valid) {
        hostFaultIn(gpa);
        h = host_pt->lookup(gpa);
        NECPT_ASSERT(h.valid);
    }
    return h;
}

Translation
NestedSystem::fillPtMemo(std::uint64_t page, Addr gpa)
{
    if (page >= pt_memo_limit)
        return hostTranslate(gpa);
    if (page >= pt_memo.size()) {
        // Grow to just past @p page, one 4KB run of entries at a time:
        // the zone fills upward from its base, so the memo spans the
        // table regions in use, not the whole zone.
        constexpr std::uint64_t grain =
            pageBytes(PageSize::Page4K) / sizeof(std::uint64_t);
        const auto n = static_cast<std::size_t>(
            std::min(alignUp(page + 1, grain), pt_memo_limit));
        pt_memo.reserve(n);
        pt_memo.resize(n);
    }
    const Translation h = hostTranslate(gpa);
    pt_memo[page] =
        h.pa | static_cast<std::uint64_t>(h.size) << 1 | memo_valid;
    return h;
}

bool
NestedSystem::hostPtMemoized(Addr gpa) const
{
    const std::uint64_t page = memoPage(gpa);
    return page < pt_memo.size() && (pt_memo[page] & memo_valid);
}

Translation
NestedSystem::nested(Addr gva, const Translation &g, const Translation &h)
{
    const PageSize eff = static_cast<int>(g.size) < static_cast<int>(h.size)
                             ? g.size : h.size;
    const Addr hpa = h.apply(g.apply(gva));
    return {hpa - pageOffset(gva, eff), eff, true};
}

Translation
NestedSystem::fullTranslate(Addr gva)
{
    const Translation g = guestTranslate(gva);
    if (!g.valid)
        return {};
    if (!cfg.virtualized)
        return g;
    const Translation h = hostTranslate(g.apply(gva));
    if (!h.valid)
        return {};
    return nested(gva, g, h);
}

Translation
NestedSystem::guestTranslate(Addr gva, const Residency &res) const
{
    return current(gva, res) ? res.guest : guestTranslate(gva);
}

Translation
NestedSystem::fullTranslate(Addr gva, const Residency &res)
{
    return current(gva, res) ? nested(gva, res.guest, res.host)
                             : fullTranslate(gva);
}

std::uint64_t
NestedSystem::guestStructureBytes() const
{
    return guest_pt->structureBytes();
}

std::uint64_t
NestedSystem::hostStructureBytes() const
{
    return host_pt ? host_pt->structureBytes() : 0;
}

std::uint64_t
NestedSystem::guestPteBytes() const
{
    return guest_pt->mappingCount() * pte_bytes;
}

std::uint64_t
NestedSystem::hostPteBytes() const
{
    return host_pt ? host_pt->mappingCount() * pte_bytes : 0;
}

} // namespace necpt
