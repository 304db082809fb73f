/** @file Unit + property tests for the composed ECPT page table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "pt/ecpt.hh"
#include "tests/test_util.hh"

namespace necpt
{

namespace
{
EcptConfig
smallEcpt(bool pte_cwt = false)
{
    EcptConfig cfg;
    cfg.initial_slots = {256, 256, 128};
    cfg.has_pte_cwt = pte_cwt;
    return cfg;
}
} // namespace

TEST(Ecpt, MapLookupAllSizes)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    pt.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    pt.map(0x40'0000'0000, 0x2'4000'0000, PageSize::Page1G);

    auto t4k = pt.lookup(0x1FFF);
    ASSERT_TRUE(t4k.valid);
    EXPECT_EQ(t4k.size, PageSize::Page4K);
    EXPECT_EQ(t4k.apply(0x1FFF), 0xAFFFu);

    auto t2m = pt.lookup(0x4000'1234);
    ASSERT_TRUE(t2m.valid);
    EXPECT_EQ(t2m.size, PageSize::Page2M);

    auto t1g = pt.lookup(0x40'1234'5678);
    ASSERT_TRUE(t1g.valid);
    EXPECT_EQ(t1g.size, PageSize::Page1G);
    EXPECT_FALSE(pt.lookup(0x9'9999'9000).valid);
}

TEST(Ecpt, EightPagesShareOneBlock)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    // Map 8 consecutive 4KB pages: one cuckoo entry.
    for (int i = 0; i < 8; ++i)
        pt.map(0x10000 + static_cast<Addr>(i) * 4096,
               0xB0000 + static_cast<Addr>(i) * 4096, PageSize::Page4K);
    EXPECT_EQ(pt.tableOf(PageSize::Page4K).size(), 1u);
    EXPECT_EQ(pt.mappingCount(PageSize::Page4K), 8u);
    for (int i = 0; i < 8; ++i) {
        const auto r =
            pt.lookupSized(0x10000 + static_cast<Addr>(i) * 4096,
                           PageSize::Page4K);
        ASSERT_TRUE(r.translation.valid);
        EXPECT_EQ(r.translation.pa,
                  0xB0000u + static_cast<Addr>(i) * 4096);
    }
}

TEST(Ecpt, GuestHasNoPteCwt)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt(false));
    EXPECT_EQ(pt.cwtOf(PageSize::Page4K), nullptr);
    EXPECT_NE(pt.cwtOf(PageSize::Page2M), nullptr);
    EXPECT_NE(pt.cwtOf(PageSize::Page1G), nullptr);
    EXPECT_FALSE(pt.hasPteCwt());
}

TEST(Ecpt, AdvancedHostHasPteCwt)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt(true));
    EXPECT_NE(pt.cwtOf(PageSize::Page4K), nullptr);
    EXPECT_TRUE(pt.hasPteCwt());
}

TEST(Ecpt, CwtTracksHugePagePresence)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    pt.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    const auto d = pt.cwtOf(PageSize::Page2M)->query(0x4000'0000);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->present);
    EXPECT_EQ(d->way, pt.tableOf(PageSize::Page2M)
                          .find(pt.blockKey(0x4000'0000,
                                            PageSize::Page2M))
                          .way);
}

TEST(Ecpt, CwtTracksHasSmaller)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    const auto pmd = pt.cwtOf(PageSize::Page2M)->query(0x1000);
    ASSERT_TRUE(pmd.has_value());
    EXPECT_TRUE(pmd->smaller_4k);
    EXPECT_FALSE(pmd->present);
    const auto pud = pt.cwtOf(PageSize::Page1G)->query(0x1000);
    ASSERT_TRUE(pud.has_value());
    EXPECT_TRUE(pud->smaller_4k);
    EXPECT_FALSE(pud->smaller_2m);
}

TEST(Ecpt, UnmapClearsMapping)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    pt.unmap(0x1000, PageSize::Page4K);
    EXPECT_FALSE(pt.lookup(0x1000).valid);
    EXPECT_EQ(pt.mappingCount(PageSize::Page4K), 0u);
    EXPECT_EQ(pt.tableOf(PageSize::Page4K).size(), 0u);
}

TEST(Ecpt, ProbeAddrsFindResidentEntry)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    pt.map(0x5000, 0xC000, PageSize::Page4K);
    const auto r = pt.lookupSized(0x5000, PageSize::Page4K);
    std::vector<Addr> probes;
    pt.probeAddrs(0x5000, PageSize::Page4K, pt.allWays(), probes);
    EXPECT_NE(std::find(probes.begin(), probes.end(), r.slot_addr),
              probes.end());
}

/**
 * The key CWT-coherence invariant: after thousands of inserts (with
 * cuckoo displacements and elastic resizes), every mapped huge page's
 * CWT way bits still point at the table way that holds it. This is
 * what lets Direct walks issue exactly one probe.
 */
TEST(Ecpt, CwtWaysCoherentAfterChurn)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    Rng rng(7);
    std::vector<Addr> mapped;
    for (int i = 0; i < 4000; ++i) {
        const Addr va = (rng.below(1ULL << 20)) << 21;
        pt.map(va, (rng.below(1ULL << 18)) << 21, PageSize::Page2M);
        mapped.push_back(va);
    }
    EXPECT_GT(pt.tableOf(PageSize::Page2M).resizeCount()
                  + pt.tableOf(PageSize::Page2M).rehashMoves(),
              0u);
    for (Addr va : mapped) {
        const auto d = pt.cwtOf(PageSize::Page2M)->query(va);
        ASSERT_TRUE(d.has_value());
        ASSERT_TRUE(d->present);
        const int actual_way = pt.tableOf(PageSize::Page2M)
                                   .find(pt.blockKey(va,
                                                     PageSize::Page2M))
                                   .way;
        EXPECT_EQ(d->way, actual_way) << "va " << std::hex << va;
    }
}

TEST(Ecpt, StructureBytesIncludeTablesAndCwts)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    EXPECT_GT(pt.structureBytes(), 0u);
    EXPECT_EQ(pt.cwtBytes(), 0u); // CWT chunks materialize on demand
    pt.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    EXPECT_GT(pt.cwtBytes(), 0u);
    EXPECT_GT(pt.structureBytes(), pt.cwtBytes());
}

/** Random mixed-size mapping property test. */
TEST(Ecpt, RandomMixedSizesRoundTrip)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt(true));
    Rng rng(99);
    struct Entry { Addr va; Addr pa; PageSize size; };
    std::vector<Entry> entries;
    // Use disjoint VA regions per size so mappings never overlap.
    for (int i = 0; i < 1500; ++i) {
        const int s = static_cast<int>(rng.below(3));
        const auto size = all_page_sizes[s];
        const Addr region = static_cast<Addr>(s + 1) << 40;
        const Addr va =
            region + (rng.below(1 << 16) << pageShift(size));
        const Addr pa = rng.below(1 << 14) << pageShift(size);
        pt.map(va, pa, size);
        entries.push_back({va, pa, size});
    }
    for (const auto &e : entries) {
        const auto r = pt.lookupSized(e.va, e.size);
        ASSERT_TRUE(r.translation.valid);
        EXPECT_EQ(r.translation.size, e.size);
    }
}

/**
 * mapBlock() against one map() per page, under forced kick exhaustion
 * and forced resize windows from equal seeds, over partial and full
 * blocks of two sizes that keep opening fresh CWT chunks: every block
 * with its way and slot address, every CWT line address and every
 * counter must match.
 */
TEST(Ecpt, MapBlockEqualsMapPerPageUnderFaults)
{
    BumpAllocator alloc_a, alloc_b;
    EcptConfig cfg = smallEcpt(true);
    cfg.initial_slots = {16, 16, 16};
    EcptPageTable a(alloc_a, cfg), b(alloc_b, cfg);
    FaultSpec spec;
    spec.kick_prob = 0.1;
    spec.resize_prob = 0.3;
    FaultPlan plan_a(spec, 5), plan_b(spec, 5);
    a.setFaultPlan(&plan_a);
    b.setFaultPlan(&plan_b);

    Rng rng(0x3A9);
    std::vector<std::pair<Addr, PageSize>> mapped;
    std::uint64_t frame = 1;
    for (int op = 0; op < 600; ++op) {
        // 4KB pages in 16GB windows (one PMD-CWT chunk each) and 2MB
        // pages in 8TB windows (one PUD-CWT chunk each), apart.
        const bool small = op == 0 || rng.chance(0.7);
        const PageSize size = small ? PageSize::Page4K : PageSize::Page2M;
        const Addr window = small ? (1ULL << 44) + (rng.below(32) << 34)
                                  : (1ULL << 46) + (rng.below(4) << 43);
        const int first = op == 0 ? 0 : static_cast<int>(rng.below(8));
        const int pages =
            op == 0 ? 8 : 1 + static_cast<int>(rng.below(8 - first));
        const Addr va = window
            + ((rng.below(64) * 8 + static_cast<std::uint64_t>(first))
               << pageShift(size));
        std::vector<Addr> frames;
        for (int i = 0; i < pages; ++i)
            frames.push_back(frame++ << pageShift(size));
        std::size_t taken = 0;
        auto next_frame = [&] { return frames[taken++]; };
        a.mapBlock(va, pages, size, next_frame);
        EXPECT_EQ(taken, frames.size());
        for (int i = 0; i < pages; ++i) {
            const Addr page = va + static_cast<Addr>(i) * pageBytes(size);
            b.map(page, frames[i], size);
            mapped.emplace_back(page, size);
        }
    }
    EXPECT_EQ(plan_a.counters().forced_resizes, 3u);
    EXPECT_GT(plan_a.counters().forced_kicks, 0u);

    for (const PageSize size : all_page_sizes) {
        auto &ta = a.tableOf(size);
        auto &tb = b.tableOf(size);
        EXPECT_EQ(ta.rehashMoves(), tb.rehashMoves());
        EXPECT_EQ(ta.resizeCount(), tb.resizeCount());
        EXPECT_EQ(ta.resizeMoves(), tb.resizeMoves());
        EXPECT_EQ(ta.injectedKickFailures(), tb.injectedKickFailures());
        EXPECT_EQ(ta.injectedResizes(), tb.injectedResizes());
        EXPECT_EQ(ta.size(), tb.size());
        EXPECT_EQ(a.mappingCount(size), b.mappingCount(size));
        ta.forEach([&](std::uint64_t key, const PteBlock &block, int way,
                       bool in_old) {
            const auto hit = ta.find(key);
            const auto twin = tb.find(key);
            ASSERT_TRUE(twin) << std::hex << key;
            EXPECT_EQ(twin.way, way) << std::hex << key;
            EXPECT_EQ(twin.in_old_generation, in_old) << std::hex << key;
            EXPECT_EQ(twin.slot_addr, hit.slot_addr) << std::hex << key;
            for (int j = 0; j < PteBlock::entries; ++j)
                EXPECT_EQ(twin.value->pte[j].rawValue(),
                          block.pte[j].rawValue());
        });
    }
    EXPECT_EQ(a.structureBytes(), b.structureBytes());
    for (const auto &[va, size] : mapped) {
        std::vector<Addr> lines_a, lines_b;
        for (const PageSize level : all_page_sizes) {
            if (a.cwtOf(level)) {
                a.cwtOf(level)->entryProbeAddrs(va, lines_a);
                b.cwtOf(level)->entryProbeAddrs(va, lines_b);
            }
        }
        ASSERT_EQ(lines_a, lines_b) << std::hex << va;
    }
    a.auditInvariants("blocks");
    b.auditInvariants("pages");
}

} // namespace necpt
