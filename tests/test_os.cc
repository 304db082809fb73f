/** @file Unit tests for the OS/hypervisor substrate. */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mem/hierarchy.hh"
#include "os/phys_pool.hh"
#include "os/system.hh"
#include "walk/machine.hh"
#include "walk/nested_ecpt.hh"

namespace necpt
{

// ------------------------------------------------------------ PhysMemPool

TEST(PhysPool, FrameAlignment)
{
    PhysMemPool pool(0, 8ULL << 30);
    for (auto size : all_page_sizes) {
        const Addr frame = pool.allocFrame(size);
        EXPECT_EQ(frame % pageBytes(size), 0u)
            << pageSizeName(size);
    }
}

TEST(PhysPool, FrameReuseAfterFree)
{
    PhysMemPool pool(0, 1ULL << 30);
    const Addr a = pool.allocFrame(PageSize::Page4K);
    pool.freeFrame(a, PageSize::Page4K);
    EXPECT_EQ(pool.allocFrame(PageSize::Page4K), a);
}

TEST(PhysPool, RegionReuseExactSize)
{
    PhysMemPool pool(0, 1ULL << 30);
    const Addr r = pool.allocRegion(65536);
    pool.freeRegion(r, 65536);
    EXPECT_EQ(pool.allocRegion(65536), r);
    // A different size bumps fresh space.
    EXPECT_NE(pool.allocRegion(131072), r);
}

TEST(PhysPool, UsageAccounting)
{
    PhysMemPool pool(0, 1ULL << 30);
    pool.allocFrame(PageSize::Page2M);
    EXPECT_EQ(pool.usedBytes(), 2ULL << 20);
    pool.allocRegion(4096);
    EXPECT_EQ(pool.usedBytes(), (2ULL << 20) + 4096);
}

TEST(ScatteredAllocator, NodesComeFromFrameZoneAndRegister)
{
    PhysMemPool pool(0, 4ULL << 30);
    PtRegionRegistry registry;
    ScatteredPtAllocator alloc(pool, registry);
    // 4KB node allocations interleave with data frames.
    const Addr data1 = pool.allocFrame(PageSize::Page4K);
    const Addr node = alloc.allocRegion(4096);
    const Addr data2 = pool.allocFrame(PageSize::Page4K);
    EXPECT_EQ(node, data1 + 4096);
    EXPECT_EQ(data2, node + 4096);
    EXPECT_TRUE(registry.contains(node));
    alloc.freeRegion(node, 4096);
    EXPECT_FALSE(registry.contains(node));
}

TEST(PhysPool, RegionZoneSeparateFromFrames)
{
    PhysMemPool pool(0, 4ULL << 30);
    const Addr frame = pool.allocFrame(PageSize::Page2M);
    const Addr region = pool.allocRegion(1 << 20);
    // Regions live in the top eighth of the pool.
    EXPECT_LT(frame, (4ULL << 30) * 7 / 8);
    EXPECT_GE(region, alignDown((4ULL << 30) * 7 / 8,
                                pageBytes(PageSize::Page1G)));
}

TEST(PtRegistry, ContainsRanges)
{
    PtRegionRegistry registry;
    registry.add(0x10000, 0x1000);
    registry.add(0x30000, 0x2000);
    EXPECT_TRUE(registry.contains(0x10000));
    EXPECT_TRUE(registry.contains(0x10FFF));
    EXPECT_FALSE(registry.contains(0x11000));
    EXPECT_TRUE(registry.contains(0x31234));
    EXPECT_FALSE(registry.contains(0x0));
    registry.remove(0x10000, 0x1000);
    EXPECT_FALSE(registry.contains(0x10000));
}

// ----------------------------------------------------------- NestedSystem

namespace
{
SystemConfig
smallSystem(PtKind guest, PtKind host, bool thp)
{
    SystemConfig cfg;
    cfg.guest_kind = guest;
    cfg.host_kind = host;
    cfg.guest_thp = thp;
    cfg.host_thp = thp;
    cfg.guest_phys_bytes = 2ULL << 30;
    cfg.host_phys_bytes = 3ULL << 30;
    cfg.guest_ecpt.initial_slots = {1024, 1024, 512};
    cfg.host_ecpt = cfg.guest_ecpt;
    return cfg;
}
} // namespace

TEST(System, DemandPagingInstallsBothLevels)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr base = sys.mmapRegion(16ULL << 20);
    EXPECT_TRUE(sys.ensureResident(base + 0x123));
    EXPECT_FALSE(sys.ensureResident(base + 0x123)); // second touch: hit
    const Translation g = sys.guestTranslate(base);
    ASSERT_TRUE(g.valid);
    const Translation full = sys.fullTranslate(base + 0x123);
    ASSERT_TRUE(full.valid);
    EXPECT_EQ(pageOffset(full.apply(base + 0x123), PageSize::Page4K),
              0x123u);
}

TEST(System, NativeModeIdentityHost)
{
    NestedSystem native([] {
        auto cfg = smallSystem(PtKind::Radix, PtKind::Radix, false);
        cfg.virtualized = false;
        return cfg;
    }());
    const Addr base = native.mmapRegion(1ULL << 20);
    native.ensureResident(base);
    const Translation g = native.guestTranslate(base);
    const Translation full = native.fullTranslate(base);
    ASSERT_TRUE(g.valid);
    EXPECT_EQ(g.pa, full.pa); // native: guest translation is final
}

TEST(System, ThpMapsHugePages)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 1.0;
    cfg.host_thp_coverage = 1.0;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(8ULL << 20, true);
    sys.ensureResident(base);
    const Translation g = sys.guestTranslate(base + 0x1000);
    ASSERT_TRUE(g.valid);
    EXPECT_EQ(g.size, PageSize::Page2M);
    const Translation full = sys.fullTranslate(base);
    EXPECT_EQ(full.size, PageSize::Page2M); // host also huge
}

TEST(System, ThpCoverageZeroFallsBackTo4K)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 0.0;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(8ULL << 20, true);
    sys.ensureResident(base);
    EXPECT_EQ(sys.guestTranslate(base).size, PageSize::Page4K);
}

TEST(System, ThpDecisionDeterministic)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 0.5;
    NestedSystem a(cfg), b(cfg);
    const Addr base_a = a.mmapRegion(64ULL << 20, true);
    const Addr base_b = b.mmapRegion(64ULL << 20, true);
    ASSERT_EQ(base_a, base_b);
    for (Addr off = 0; off < (64ULL << 20); off += (2ULL << 20)) {
        a.ensureResident(base_a + off);
        b.ensureResident(base_b + off);
        EXPECT_EQ(a.guestTranslate(base_a + off).size,
                  b.guestTranslate(base_b + off).size);
    }
}

TEST(System, PageTablePagesBacked4K)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.host_thp_coverage = 1.0;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(8ULL << 20);
    sys.ensureResident(base);
    // The guest ECPT's PTE table way 0 lives in a PT region...
    const Addr gecpt_gpa =
        sys.guestEcpt()->tableOf(PageSize::Page4K).wayBase(0);
    EXPECT_TRUE(sys.isPtRegion(gecpt_gpa));
    // ...and the hypervisor backs it with a 4KB page (Section 4.3)
    // even though host THP coverage is 100%.
    const Translation h = sys.hostTranslate(gecpt_gpa);
    ASSERT_TRUE(h.valid);
    EXPECT_EQ(h.size, PageSize::Page4K);
}

TEST(System, EffectivePageSizeIsMin)
{
    // Guest huge + host 4K => effective 4K TLB entry.
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 1.0;
    cfg.host_thp = false;
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(4ULL << 20, true);
    sys.ensureResident(base + 0x3000);
    const Translation full = sys.fullTranslate(base + 0x3000);
    ASSERT_TRUE(full.valid);
    EXPECT_EQ(full.size, PageSize::Page4K);
    EXPECT_EQ(sys.guestTranslate(base).size, PageSize::Page2M);
}

TEST(System, FaultCountsAdvance)
{
    NestedSystem sys(smallSystem(PtKind::Radix, PtKind::Radix, false));
    const Addr base = sys.mmapRegion(1ULL << 20);
    const auto g0 = sys.guestFaults();
    sys.ensureResident(base);
    sys.ensureResident(base + 4096);
    EXPECT_EQ(sys.guestFaults(), g0 + 2);
    EXPECT_GE(sys.hostFaults(), 2u);
}

TEST(System, StructureBytesReported)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr base = sys.mmapRegion(1ULL << 20);
    sys.ensureResident(base);
    EXPECT_GT(sys.guestStructureBytes(), 0u);
    EXPECT_GT(sys.hostStructureBytes(), 0u);
    EXPECT_GT(sys.guestPteBytes(), 0u);
    EXPECT_GT(sys.hostPteBytes(), 0u);
}

TEST(System, MmapRegionsDisjoint)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr a = sys.mmapRegion(10ULL << 20);
    const Addr b = sys.mmapRegion(10ULL << 20);
    EXPECT_GE(b, a + (10ULL << 20));
}

TEST(System, HostFlatBaseline)
{
    NestedSystem sys(smallSystem(PtKind::Radix, PtKind::Flat, false));
    ASSERT_NE(sys.hostFlat(), nullptr);
    const Addr base = sys.mmapRegion(1ULL << 20);
    sys.ensureResident(base);
    EXPECT_TRUE(sys.fullTranslate(base).valid);
}

/** One organization pairing for the prefault property below. */
struct PrefaultCase
{
    const char *name;
    PtKind guest;
    PtKind host;
    bool guest_thp;
    bool host_thp;

    /** Print as the case name; the default byte dump would put this
     *  build's string address into the listed test name. */
    friend void PrintTo(const PrefaultCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

class PrefaultResident : public ::testing::TestWithParam<PrefaultCase>
{};

/** After prefaultAll every page it mapped is resident: a second pass
 *  faults nothing and mutates no table. */
TEST_P(PrefaultResident, SecondPassIsANoOp)
{
    const PrefaultCase &c = GetParam();
    auto cfg = smallSystem(c.guest, c.host, false);
    cfg.guest_thp = c.guest_thp;
    cfg.host_thp = c.host_thp;
    cfg.guest_thp_coverage = 0.5;
    cfg.host_thp_coverage = 0.5;
    NestedSystem sys(cfg);
    sys.mmapRegion(192ULL << 20, true);
    sys.mmapRegion(5ULL << 20, false);
    sys.prefaultAll();

    const auto guest_faults = sys.guestFaults();
    const auto host_faults = sys.hostFaults();
    std::uint64_t pages = 0;
    bool saw_2m = false;
    for (std::size_t i = 0; i < sys.vmaCount(); ++i) {
        const auto [base, bytes] = sys.vmaRange(i);
        for (Addr va = base; va < base + bytes;) {
            EXPECT_FALSE(sys.ensureResident(va)) << std::hex << va;
            const Translation g = sys.guestTranslate(va);
            ASSERT_TRUE(g.valid) << std::hex << va;
            saw_2m |= g.size == PageSize::Page2M;
            va += pageBytes(g.size);
            ++pages;
        }
    }
    EXPECT_GT(pages, 0u);
    EXPECT_EQ(saw_2m, c.guest_thp);
    EXPECT_EQ(sys.guestFaults(), guest_faults);
    EXPECT_EQ(sys.hostFaults(), host_faults);
    sys.auditInvariants();
}

// Hashed page tables map 4KB pages only (Section 2.2), so the HPT
// rows turn THP on at the radix guest above an HPT host.
constexpr PrefaultCase radix_case{"Radix", PtKind::Radix, PtKind::Radix,
                                  false, false};
constexpr PrefaultCase radix_thp_case{"RadixThp", PtKind::Radix,
                                      PtKind::Radix, true, true};
constexpr PrefaultCase ecpt_case{"Ecpt", PtKind::Ecpt, PtKind::Ecpt, false,
                                 false};
constexpr PrefaultCase ecpt_thp_case{"EcptThp", PtKind::Ecpt, PtKind::Ecpt,
                                     true, true};
constexpr PrefaultCase ecpt_host_thp_case{"EcptHostThp", PtKind::Ecpt,
                                          PtKind::Ecpt, false, true};
constexpr PrefaultCase hpt_case{"Hpt", PtKind::Hpt, PtKind::Hpt, false,
                                false};
constexpr PrefaultCase hpt_host_guest_thp_case{
    "HptHostGuestThp", PtKind::Radix, PtKind::Hpt, true, false};

template <typename Case>
std::string
caseName(const ::testing::TestParamInfo<Case> &param_info)
{
    return std::string(param_info.param.name);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, PrefaultResident,
    ::testing::Values(
        radix_case, radix_thp_case, ecpt_case, ecpt_thp_case, hpt_case,
        hpt_host_guest_thp_case,
        PrefaultCase{"FlatHost", PtKind::Radix, PtKind::Flat, false, false},
        PrefaultCase{"FlatHostThp", PtKind::Radix, PtKind::Flat, true,
                     true}),
    caseName<PrefaultCase>);

/** A PrefaultCase plus what the block path must also get right. */
struct PrefaultBlockCase
{
    const char *name;
    PrefaultCase org;
    /** Initial slots per way of both PTE-ECPTs; 0 keeps smallSystem's. */
    std::uint64_t pte_slots;
    /** Touch one page of the first VMA before prefaulting, so that
     *  VMA takes the page-by-page path. */
    bool touch_first_vma;
    /** Start with a 2MB + 12KB VMA whose first 2MB is faulted in and
     *  collapsed into a 2MB page: its 512 backed 4KB guest frames are
     *  recycled, 509 of them into the untouched VMAs, so the last
     *  recycled ones share a block with fresh, unbacked frames. */
    bool recycle_frames = false;

    friend void PrintTo(const PrefaultBlockCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

class PrefaultBlocks : public ::testing::TestWithParam<PrefaultBlockCase>
{};

namespace
{

/** The host table's own lookup, which faults nothing in. */
Translation
hostLookup(NestedSystem &sys, Addr gpa)
{
    if (const RadixPageTable *t = sys.hostRadix())
        return t->lookup(gpa);
    if (const EcptPageTable *t = sys.hostEcpt())
        return t->lookup(gpa);
    if (const HashedPageTable *t = sys.hostHpt())
        return t->lookup(gpa);
    const FlatPageTable *t = sys.hostFlat();
    return t ? t->lookup(gpa) : Translation{};
}

/** Fault every page of every VMA of @p sys in address order, one
 *  ensureResident per mapped page, then let resizes finish. */
void
faultEveryPage(NestedSystem &sys)
{
    for (std::size_t i = 0; i < sys.vmaCount(); ++i) {
        const auto [base, bytes] = sys.vmaRange(i);
        for (Addr va = base; va < base + bytes;) {
            sys.ensureResident(va);
            va += pageBytes(sys.guestTranslate(va).size);
        }
    }
    sys.quiesce();
}

/** Every block of both ECPTs of @p sys: way, generation, slot address
 *  and payload, per page size. */
std::vector<std::map<std::uint64_t, std::string>>
ecptBlocks(NestedSystem &sys)
{
    std::vector<std::map<std::uint64_t, std::string>> out;
    for (EcptPageTable *ecpt : {sys.guestEcpt(), sys.hostEcpt()}) {
        if (!ecpt)
            continue;
        for (PageSize size : all_page_sizes) {
            auto &table = ecpt->tableOf(size);
            auto &blocks = out.emplace_back();
            table.forEach([&](std::uint64_t key, const PteBlock &block,
                              int way, bool in_old) {
                std::ostringstream text;
                text << way << (in_old ? " old " : " live ") << std::hex
                     << table.find(key).slot_addr;
                for (const Pte &pte : block.pte)
                    text << ' ' << pte.rawValue();
                blocks.emplace(key, text.str());
            });
        }
    }
    return out;
}

/** Per-size cuckoo counters and CWT bytes of both ECPTs of @p sys. */
std::vector<std::uint64_t>
ecptCounters(NestedSystem &sys)
{
    std::vector<std::uint64_t> out;
    for (EcptPageTable *ecpt : {sys.guestEcpt(), sys.hostEcpt()}) {
        if (!ecpt)
            continue;
        out.push_back(ecpt->cwtBytes());
        out.push_back(ecpt->structureBytes());
        for (PageSize size : all_page_sizes) {
            const auto &table = ecpt->tableOf(size);
            out.insert(out.end(),
                       {table.rehashMoves(), table.resizeCount(),
                        table.resizeMoves(), table.size(),
                        table.slotsPerWay(), ecpt->mappingCount(size)});
        }
    }
    return out;
}

} // namespace

/**
 * Prefaulting block by block leaves the machine exactly as the same
 * reservation followed by faulting every page in address order does:
 * same faults, same translations on both sides, same cuckoo tables
 * down to each block's way and slot address, same CWT chunk addresses,
 * same pool usage.
 */
TEST_P(PrefaultBlocks, MatchesPageByPage)
{
    const PrefaultBlockCase &c = GetParam();
    auto cfg = smallSystem(c.org.guest, c.org.host, false);
    cfg.guest_thp = c.org.guest_thp;
    cfg.host_thp = c.org.host_thp;
    cfg.guest_thp_coverage = 0.5;
    cfg.host_thp_coverage = 0.5;
    if (c.pte_slots) {
        cfg.guest_ecpt.initial_slots[0] = c.pte_slots;
        cfg.host_ecpt.initial_slots[0] = c.pte_slots;
    }
    NestedSystem blocks(cfg), pages(cfg);
    for (NestedSystem *sys : {&blocks, &pages}) {
        if (c.recycle_frames) {
            const Addr base =
                sys->mmapRegion((2ULL << 20) + 3 * 4096, false);
            ASSERT_EQ(pageOffset(base, PageSize::Page2M), 0u);
            for (Addr va = base; va < base + (2ULL << 20); va += 4096)
                sys->ensureResident(va);
            ASSERT_EQ(sys->thpPromote(base), 512);
        }
        sys->mmapRegion(192ULL << 20, true);
        // Sizes off the 32KB block grid: partial first and last blocks.
        sys->mmapRegion((5ULL << 20) + 3 * 4096, false);
        sys->mmapRegion((1ULL << 20) + 4096, false);
        if (c.touch_first_vma) {
            EXPECT_TRUE(sys->ensureResident(sys->vmaRange(0).first
                                            + (67ULL << 20) + 0x123));
        }
    }

    blocks.prefaultAll();
    pages.reserveForPrefault();
    faultEveryPage(pages);

    EXPECT_EQ(blocks.guestFaults(), pages.guestFaults());
    EXPECT_EQ(blocks.hostFaults(), pages.hostFaults());
    for (std::size_t i = 0; i < blocks.vmaCount(); ++i) {
        const auto [base, bytes] = blocks.vmaRange(i);
        for (Addr va = base; va < base + bytes; va += 4096) {
            const Translation g = blocks.guestTranslate(va);
            const Translation want = pages.guestTranslate(va);
            ASSERT_TRUE(g.valid) << std::hex << va;
            ASSERT_EQ(g.pa, want.pa) << std::hex << va;
            ASSERT_EQ(g.size, want.size) << std::hex << va;
            const Translation h = hostLookup(blocks, g.apply(va));
            const Translation h_want = hostLookup(pages, g.apply(va));
            ASSERT_EQ(h.valid, h_want.valid) << std::hex << va;
            ASSERT_EQ(h.pa, h_want.pa) << std::hex << va;
            ASSERT_EQ(h.size, h_want.size) << std::hex << va;
            // Each CWT chunk was carved at the same point.
            std::vector<Addr> cwt_lines, cwt_lines_want;
            for (auto [ecpt, ecpt_want, at] :
                 {std::tuple{blocks.guestEcpt(), pages.guestEcpt(), va},
                  std::tuple{blocks.hostEcpt(), pages.hostEcpt(),
                             g.apply(va)}}) {
                for (PageSize level : all_page_sizes) {
                    if (ecpt && ecpt->cwtOf(level)) {
                        ecpt->cwtOf(level)->entryProbeAddrs(at, cwt_lines);
                        ecpt_want->cwtOf(level)->entryProbeAddrs(
                            at, cwt_lines_want);
                    }
                }
            }
            ASSERT_EQ(cwt_lines, cwt_lines_want) << std::hex << va;
        }
    }
    EXPECT_EQ(ecptCounters(blocks), ecptCounters(pages));
    EXPECT_TRUE(ecptBlocks(blocks) == ecptBlocks(pages));
    EXPECT_EQ(blocks.guestPool().usedBytes(), pages.guestPool().usedBytes());
    EXPECT_EQ(blocks.hostPool().usedBytes(), pages.hostPool().usedBytes());
    EXPECT_EQ(blocks.guestStructureBytes(), pages.guestStructureBytes());
    EXPECT_EQ(blocks.hostStructureBytes(), pages.hostStructureBytes());
    blocks.auditInvariants();
    pages.auditInvariants();
    // The small-table row still writes blocks while a resize is in
    // flight: the host table, which host THP keeps unreserved.
    if (c.pte_slots) {
        EXPECT_GT(blocks.hostEcpt()->tableOf(PageSize::Page4K).resizeCount(),
                  1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, PrefaultBlocks,
    ::testing::Values(
        PrefaultBlockCase{"Radix", radix_case, 0, false},
        PrefaultBlockCase{"RadixThp", radix_thp_case, 0, false},
        PrefaultBlockCase{"Ecpt", ecpt_case, 0, false},
        PrefaultBlockCase{"EcptThp", ecpt_thp_case, 0, false},
        PrefaultBlockCase{"Hpt", hpt_case, 0, false},
        PrefaultBlockCase{"HptHostGuestThp", hpt_host_guest_thp_case, 0,
                          false},
        // 16 slots per way: the guest tables are reserved, but host
        // THP leaves the host's unreserved, and its elastic resizes
        // start every few dozen to few hundred blocks and migrate
        // across the blocks that follow.
        PrefaultBlockCase{"EcptResizing", ecpt_host_thp_case, 16, false},
        PrefaultBlockCase{"EcptThpTouchedVma", ecpt_thp_case, 0, true},
        PrefaultBlockCase{"EcptRecycledFrames", ecpt_case, 0, false, true}),
    caseName<PrefaultBlockCase>);

class PrefaultReserve : public ::testing::TestWithParam<PrefaultCase>
{
  protected:
    /** The case's machine, with ECPTs small enough that every table in
     *  use grows several times. */
    static SystemConfig
    config(const PrefaultCase &c)
    {
        auto cfg = smallSystem(c.guest, c.host, false);
        cfg.guest_thp = c.guest_thp;
        cfg.host_thp = c.host_thp;
        cfg.guest_thp_coverage = 0.5;
        cfg.host_thp_coverage = 0.5;
        cfg.guest_ecpt.initial_slots = {64, 4, 4};
        cfg.host_ecpt.initial_slots = {64, 4, 4};
        return cfg;
    }

    static void
    mapVmas(NestedSystem &sys)
    {
        sys.mmapRegion(448ULL << 20, true);
        sys.mmapRegion((5ULL << 20) + 3 * 4096, false);
        sys.mmapRegion((1ULL << 20) + 4096, false);
    }

    /** A table the reservation sizes, and whether its block count is
     *  exact rather than a lower bound. */
    struct Reserved
    {
        bool guest;
        PageSize size;
        bool exact;
    };

    /** Every guest ECPT table (exact), and the host's 4KB ECPT table
     *  when host THP is off (exact above an ECPT guest, whose frames
     *  nothing else interleaves). */
    static std::vector<Reserved>
    reservedTables(const PrefaultCase &c)
    {
        std::vector<Reserved> tables;
        if (c.guest == PtKind::Ecpt) {
            for (PageSize size : all_page_sizes)
                tables.push_back({true, size, true});
        }
        if (c.host == PtKind::Ecpt && !c.host_thp)
            tables.push_back(
                {false, PageSize::Page4K, c.guest == PtKind::Ecpt});
        return tables;
    }
};

/**
 * The reservation ends where elastic growth ends: after prefaultAll
 * every ECPT table has the size that faulting page by page without a
 * reservation grows it to, and the tables whose count is exact never
 * resized.
 */
TEST_P(PrefaultReserve, EndsOnElasticGeometry)
{
    const PrefaultCase &c = GetParam();
    NestedSystem reserved(config(c)), elastic(config(c));
    mapVmas(reserved);
    mapVmas(elastic);
    reserved.prefaultAll();
    faultEveryPage(elastic);

    for (auto [ecpt, want] :
         {std::pair{reserved.guestEcpt(), elastic.guestEcpt()},
          std::pair{reserved.hostEcpt(), elastic.hostEcpt()}}) {
        if (!ecpt)
            continue;
        for (PageSize size : all_page_sizes) {
            SCOPED_TRACE(pageSizeName(size));
            const auto &table = ecpt->tableOf(size);
            const auto &table_want = want->tableOf(size);
            EXPECT_EQ(table.slotsPerWay(), table_want.slotsPerWay());
            EXPECT_EQ(table.structureBytes(), table_want.structureBytes());
            EXPECT_EQ(table.size(), table_want.size());
        }
        EXPECT_GT(want->tableOf(PageSize::Page4K).resizeCount(), 1u);
        EXPECT_EQ(ecpt->structureBytes(), want->structureBytes());
    }
    for (const Reserved &t : reservedTables(c)) {
        if (!t.exact)
            continue;
        EcptPageTable *ecpt = t.guest ? reserved.guestEcpt()
                                      : reserved.hostEcpt();
        EXPECT_EQ(ecpt->tableOf(t.size).resizeCount(), 0u)
            << (t.guest ? "guest " : "host ") << pageSizeName(t.size);
    }
    if (c.guest_thp) {
        EXPECT_GT(elastic.guestEcpt()->tableOf(PageSize::Page2M)
                      .resizeCount(),
                  0u);
    }
    reserved.auditInvariants();
}

/**
 * The reservation never counts more blocks than faulting page by page
 * inserts: a table whose initial size just holds that many keeps its
 * size. Where the count is exact it is no fewer either: a table a slot
 * per way smaller grows once.
 */
TEST_P(PrefaultReserve, CountsEveryBlock)
{
    const PrefaultCase &c = GetParam();
    const SystemConfig base = config(c);
    NestedSystem elastic(base);
    mapVmas(elastic);
    faultEveryPage(elastic);
    for (const auto [guest, size, exact] : reservedTables(c)) {
        SCOPED_TRACE(::testing::Message()
                     << (guest ? "guest " : "host ") << pageSizeName(size));
        const auto &filled =
            (guest ? elastic.guestEcpt() : elastic.hostEcpt())->tableOf(size);
        const std::uint64_t blocks = filled.size();
        // The smallest table that holds them (the resize check's
        // expression).
        const double threshold =
            (guest ? base.guest_ecpt : base.host_ecpt).resize_threshold;
        std::uint64_t fits = 1;
        while (static_cast<double>(blocks)
                   / static_cast<double>(fits * filled.numWays())
               > threshold)
            ++fits;
        for (const std::uint64_t initial : {fits, fits - 1}) {
            if (blocks == 0 || initial == 0 || (initial < fits && !exact))
                continue;
            SystemConfig cfg = base;
            (guest ? cfg.guest_ecpt : cfg.host_ecpt)
                .initial_slots[static_cast<int>(size)] = initial;
            NestedSystem sys(cfg);
            mapVmas(sys);
            sys.reserveForPrefault();
            EXPECT_EQ((guest ? sys.guestEcpt() : sys.hostEcpt())
                          ->tableOf(size)
                          .slotsPerWay(),
                      initial == fits ? fits : 2 * initial)
                << blocks << " blocks";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, PrefaultReserve,
    ::testing::Values(
        ecpt_case, ecpt_thp_case, ecpt_host_thp_case,
        PrefaultCase{"EcptGuestThp", PtKind::Ecpt, PtKind::Ecpt, true,
                     false},
        PrefaultCase{"HybridHost", PtKind::Radix, PtKind::Ecpt, false,
                     false}),
    caseName<PrefaultCase>);

class BalloonOut : public ::testing::TestWithParam<PrefaultCase>
{};

/**
 * Ballooning a guest 2MB page out over a host range that is only
 * partly backed releases the same host frames, in the same order, as
 * releasing the range page by page with one host lookup per 4KB page:
 * the frames either host pool hands out next come back identical.
 */
TEST_P(BalloonOut, FreesWhatThePerPageLoopFrees)
{
    const PrefaultCase &c = GetParam();
    auto cfg = smallSystem(c.guest, c.host, false);
    cfg.guest_thp = c.guest_thp;
    cfg.host_thp = c.host_thp;
    cfg.guest_thp_coverage = 1.0;
    // The backed 4KB pages of the guest page: block edges, a run over
    // a block boundary, one whole block and the page's last page.
    constexpr int backed[] = {0,  1,  7,  8,  13, 15, 16,  40,  64,  65,
                              66, 67, 68, 69, 70, 71, 255, 256, 511};
    NestedSystem fast(cfg), ref(cfg);
    Addr gpa = 0;
    for (NestedSystem *sys : {&fast, &ref}) {
        const Addr base = sys->mmapRegion(4ULL << 20, true);
        for (const int page : backed)
            sys->ensureResident(base + static_cast<Addr>(page) * 4096);
        const Translation g = sys->guestTranslate(base);
        ASSERT_EQ(g.size, PageSize::Page2M);
        ASSERT_TRUE(gpa == 0 || gpa == g.pa);
        gpa = g.pa;
    }
    const std::uint64_t used = fast.hostPool().usedBytes();
    auto hostTable = [&c](NestedSystem &sys) -> PageTable & {
        if (c.host == PtKind::Ecpt)
            return *sys.hostEcpt();
        return *sys.hostRadix();
    };

    ASSERT_TRUE(fast.balloonOut(fast.vmaRange(0).first).ok);
    // The reference: every 4KB page asks the host table (the guest
    // side of the balloon is not compared).
    PageTable &ref_host = hostTable(ref);
    for (Addr at = gpa; at < gpa + (2ULL << 20);) {
        const Translation h = ref_host.lookup(at);
        if (!h.valid) {
            at += 4096;
            continue;
        }
        const Addr hpage = pageBase(at, h.size);
        ref_host.unmap(hpage, h.size);
        ref.hostPool().freeFrame(h.pa, h.size);
        at = hpage + pageBytes(h.size);
    }

    EXPECT_EQ(used - fast.hostPool().usedBytes(),
              std::size(backed) * 4096);
    EXPECT_EQ(fast.hostPool().usedBytes(), ref.hostPool().usedBytes());
    for (Addr at = gpa; at < gpa + (2ULL << 20); at += 4096)
        ASSERT_FALSE(hostTable(fast).lookup(at).valid) << std::hex << at;
    for (std::size_t i = 0; i < std::size(backed) + 4; ++i)
        ASSERT_EQ(fast.hostPool().allocFrame(PageSize::Page4K),
                  ref.hostPool().allocFrame(PageSize::Page4K))
            << i;
}

INSTANTIATE_TEST_SUITE_P(
    Hosts, BalloonOut,
    ::testing::Values(
        PrefaultCase{"EcptHost", PtKind::Ecpt, PtKind::Ecpt, true, false},
        PrefaultCase{"RadixHost", PtKind::Radix, PtKind::Radix, true,
                     false}),
    caseName<PrefaultCase>);

// ------------------------------------------- Translations once per access

namespace
{

/** The first 4KB page of guest ECPT way 0: a page-table page inside
 *  the guest pool's region zone. */
Addr
gecptPage(const NestedSystem &sys)
{
    return sys.guestEcpt()->tableOf(PageSize::Page4K).wayBase(0);
}

} // namespace

TEST(HostPtMemo, EntrySurvivesFreshHostMapsElsewhere)
{
    NestedSystem sys(smallSystem(PtKind::Ecpt, PtKind::Ecpt, false));
    const Addr base = sys.mmapRegion(8ULL << 20);
    sys.ensureResident(base);
    const Addr pt = gecptPage(sys) + 0x48;
    EXPECT_FALSE(sys.hostPtMemoized(pt));
    const Translation first = sys.hostTranslatePt(pt);
    ASSERT_TRUE(first.valid);
    EXPECT_TRUE(sys.hostPtMemoized(pt));

    // Fault in fresh guest and host pages all over the VMA.
    const std::uint64_t remaps = sys.remapCount();
    const std::uint64_t host_faults = sys.hostFaults();
    for (Addr off = 4096; off < (8ULL << 20); off += 5 * 4096)
        sys.ensureResident(base + off);
    EXPECT_GT(sys.hostFaults(), host_faults);
    EXPECT_EQ(sys.remapCount(), remaps) << "a fresh map is no remap";

    EXPECT_TRUE(sys.hostPtMemoized(pt));
    const Translation again = sys.hostTranslatePt(pt);
    EXPECT_EQ(again.apply(pt), first.apply(pt));
    EXPECT_EQ(again.apply(pt), sys.hostTranslate(pt).apply(pt));
    EXPECT_NO_THROW(sys.auditInvariants());

    // A gPA below the zone is translated, never memoized.
    const Addr data_gpa = sys.guestTranslate(base).pa;
    EXPECT_EQ(sys.hostTranslatePt(data_gpa).apply(data_gpa),
              sys.hostTranslate(data_gpa).apply(data_gpa));
    EXPECT_FALSE(sys.hostPtMemoized(data_gpa));
}

/** A host unmap (balloon or migrate) over memoized pages, backed by
 *  4KB or 2MB host pages. */
struct MemoDropCase
{
    const char *name;
    bool host_2m;
    bool migrate; //!< else balloon
    friend void
    PrintTo(const MemoDropCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

class HostPtMemoDrop : public ::testing::TestWithParam<MemoDropCase>
{};

/**
 * The memo drops exactly the host pages an unmap releases. A 2MB guest
 * frame recycled from the region zone puts a data page where the memo
 * indexes; three of its 4KB pages and one gECPT page are memoized.
 * A migrate or balloon drops the entries inside the host pages it
 * unmaps (one 4KB page, or the whole 2MB page) and keeps the rest, and
 * every entry left matches the host table.
 */
TEST_P(HostPtMemoDrop, DropsExactlyTheUnmappedRange)
{
    const MemoDropCase &c = GetParam();
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, true);
    cfg.guest_thp_coverage = 1.0;
    cfg.host_thp = c.host_2m;
    cfg.host_thp_coverage = 1.0;
    NestedSystem sys(cfg);

    // Hand the next 2MB guest fault a frame from the region zone.
    PhysMemPool &pool = sys.guestPool();
    const Addr zone_frame = pool.allocRegion(pageBytes(PageSize::Page2M));
    ASSERT_EQ(pageOffset(zone_frame, PageSize::Page2M), 0u);
    pool.freeFrame(zone_frame, PageSize::Page2M);

    const Addr base = sys.mmapRegion(2ULL << 20, true);
    const Addr gva = base + 0x1000;
    sys.ensureResident(gva);
    const Translation g = sys.guestTranslate(gva);
    ASSERT_EQ(g.size, PageSize::Page2M);
    ASSERT_EQ(g.pa, zone_frame);

    const Addr pages[] = {zone_frame, zone_frame + 0x1000,
                          zone_frame + 0x5000};
    for (const Addr gpa : pages)
        ASSERT_TRUE(sys.hostTranslatePt(gpa).valid);
    const Addr pt = gecptPage(sys);
    ASSERT_TRUE(sys.hostTranslatePt(pt).valid);
    const Translation h = sys.hostTranslate(zone_frame + 0x1000);
    ASSERT_EQ(h.size, c.host_2m ? PageSize::Page2M : PageSize::Page4K);

    const std::uint64_t remaps = sys.remapCount();
    if (c.migrate)
        ASSERT_TRUE(sys.migratePage(gva));
    else
        ASSERT_TRUE(sys.balloonOut(gva).ok);
    EXPECT_GT(sys.remapCount(), remaps);

    // Migrating a 4KB host page drops only gva's page; a 2MB host
    // page, or a balloon of the whole guest frame, drops all three.
    for (const Addr gpa : pages) {
        const bool dropped =
            c.host_2m || !c.migrate || gpa == pageBase(g.apply(gva),
                                                       PageSize::Page4K);
        EXPECT_EQ(sys.hostPtMemoized(gpa), !dropped) << std::hex << gpa;
    }
    EXPECT_TRUE(sys.hostPtMemoized(pt));
    EXPECT_NO_THROW(sys.auditInvariants());

    if (c.migrate) {
        // The next lookup memoizes the new backing.
        const Addr gpa = g.apply(gva);
        EXPECT_EQ(sys.hostTranslatePt(gpa).apply(gpa),
                  sys.hostTranslate(gpa).apply(gpa));
        EXPECT_TRUE(sys.hostPtMemoized(gpa));
        EXPECT_NE(sys.hostTranslate(gpa).pa, h.pa);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Unmaps, HostPtMemoDrop,
    ::testing::Values(MemoDropCase{"Migrate4K", false, true},
                      MemoDropCase{"Balloon4K", false, false},
                      MemoDropCase{"Migrate2M", true, true},
                      MemoDropCase{"Balloon2M", true, false}),
    caseName<MemoDropCase>);

/**
 * A walk reuses its access's residency check only while nothing was
 * unmapped or remapped: the host re-backs the page under an in-flight
 * walk, and the walk's result is the new translation, not the one the
 * check found.
 */
TEST(Residency, WalkLooksUpAgainAfterAMidWalkRemap)
{
    auto cfg = smallSystem(PtKind::Ecpt, PtKind::Ecpt, false);
    for (const bool remap : {false, true}) {
        NestedSystem sys(cfg);
        MemoryHierarchy mem(MemHierarchyConfig{}, 1);
        NestedEcptWalker walker(sys, mem, 0);
        const Addr base = sys.mmapRegion(1ULL << 20);
        const Addr gva = base + 0x3123;
        sys.ensureResident(gva);
        const NestedSystem::Residency res = sys.lastResidency();
        ASSERT_EQ(res.gva, gva);
        const Translation before = sys.fullTranslate(gva);

        WalkMachinePtr walk = walker.startWalk(gva, 100);
        ASSERT_FALSE(walk->done()) << "the walk parks on Step 1";
        if (remap) {
            ASSERT_TRUE(sys.migratePage(gva));
        }
        EXPECT_EQ(sys.remapCount() != res.remaps, remap);
        mem.drainAll();
        ASSERT_TRUE(walk->done());

        const Translation now = sys.fullTranslate(gva);
        EXPECT_EQ(walk->result().translation.apply(gva), now.apply(gva));
        EXPECT_EQ(now.apply(gva) != before.apply(gva), remap);
        EXPECT_EQ(sys.fullTranslate(gva, res).apply(gva), now.apply(gva));
    }
}

} // namespace necpt
