/** @file Unit tests for the OS/hypervisor substrate. */

#include <gtest/gtest.h>

#include <ostream>

#include "os/phys_pool.hh"
#include "os/system.hh"

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
    // 4KB node allocations interleave with data frames...
    const Addr data1 = pool.allocFrame(PageSize::Page4K);
    const Addr node = alloc.allocRegion(4096);
    const Addr data2 = pool.allocFrame(PageSize::Page4K);
    EXPECT_EQ(node, data1 + 4096);
    EXPECT_EQ(data2, node + 4096);
    EXPECT_TRUE(registry.contains(node));
    // ...while large allocations are assembled from successive 4KB
    // frames (no contiguity assumed — the bump allocator just happens
    // to provide it here) and registered over their whole extent.
    const Addr big = alloc.allocRegion(1 << 20);
    EXPECT_EQ(big, data2 + 4096);
    EXPECT_TRUE(registry.contains(big));
    EXPECT_TRUE(registry.contains(big + (1 << 20) - 1));
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
    cfg.guest_ecpt.cwt_initial_slots = {256, 256, 128};
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
INSTANTIATE_TEST_SUITE_P(
    Organizations, PrefaultResident,
    ::testing::Values(
        PrefaultCase{"Radix", PtKind::Radix, PtKind::Radix, false, false},
        PrefaultCase{"RadixThp", PtKind::Radix, PtKind::Radix, true, true},
        PrefaultCase{"Ecpt", PtKind::Ecpt, PtKind::Ecpt, false, false},
        PrefaultCase{"EcptThp", PtKind::Ecpt, PtKind::Ecpt, true, true},
        PrefaultCase{"Hpt", PtKind::Hpt, PtKind::Hpt, false, false},
        PrefaultCase{"HptHostGuestThp", PtKind::Radix, PtKind::Hpt, true,
                     false},
        PrefaultCase{"FlatHost", PtKind::Radix, PtKind::Flat, false, false},
        PrefaultCase{"FlatHostThp", PtKind::Radix, PtKind::Flat, true,
                     true}),
    [](const ::testing::TestParamInfo<PrefaultCase> &param_info) {
        return std::string(param_info.param.name);
    });

} // namespace necpt
