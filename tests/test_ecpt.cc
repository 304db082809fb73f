/** @file Unit + property tests for the composed ECPT page table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
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

/** A CWT descriptor names a way in two bits, so at most four ways. */
TEST(Ecpt, RejectsMoreWaysThanADescriptorNames)
{
    BumpAllocator alloc;
    EcptConfig cfg = smallEcpt();
    cfg.ways = 5;
    EXPECT_THROW(EcptPageTable(alloc, cfg), ConfigError);
    cfg.ways = 4;
    EcptPageTable four(alloc, cfg);
    four.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    EXPECT_TRUE(four.lookup(0x4000'1234).valid);
}

/**
 * A present PMD-CWT bit over an unmapped 2MB section would send
 * lookup() to the 2MB table and hide whatever is mapped there; the
 * audit's converse check names it.
 */
TEST(EcptLookup, AuditCatchesAStalePresentBit)
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, smallEcpt());
    pt.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    pt.map(0x4040'1000, 0xA000, PageSize::Page4K);
    pt.auditInvariants("clean");
    pt.cwtOf(PageSize::Page2M)->setPresent(0x4020'0000, 0);
    try {
        pt.auditInvariants("stale");
        FAIL() << "a stale present bit passed the audit";
    } catch (const InvariantViolation &e) {
        EXPECT_NE(std::string(e.what()).find("stale present bit"),
                  std::string::npos)
            << e.what();
    }
}

namespace
{

/** lookup() as it was before it read the CWT: the one page size whose
 *  table maps @p va (page sizes never overlap). */
Translation
lookupEveryTable(const EcptPageTable &pt, Addr va)
{
    Translation found;
    for (const PageSize size : all_page_sizes) {
        const Translation t = pt.lookupSized(va, size).translation;
        if (t.valid) {
            EXPECT_FALSE(found.valid) << "overlapping pages at " << std::hex
                                      << va;
            found = t;
        }
    }
    return found;
}

/** One 2MB region of the model: a 2MB page, or 4KB pages, or nothing. */
struct ModelRegion
{
    Addr base = 0;
    Addr huge = invalid_addr;
    std::vector<Addr> small = std::vector<Addr>(512, invalid_addr);
    int small_count = 0;
};

/** Drive @p pt through random 4KB and 2MB maps and unmaps, 2MB splits
 *  and collapses, and 1GB maps and unmaps; after every operation
 *  lookup() must equal lookupEveryTable() and the model. */
void
checkCwtDirectedLookup(bool pte_cwt, std::uint64_t seed)
{
    BumpAllocator alloc;
    EcptConfig cfg = smallEcpt(pte_cwt);
    // The 2MB table starts at 4 slots per way and grows past 7, 14 and
    // 28 blocks, so its own resize windows open as well.
    cfg.initial_slots = {16, 4, 4};
    EcptPageTable pt(alloc, cfg);
    FaultSpec spec;
    spec.kick_prob = 0.1;
    spec.resize_prob = 0.3;
    FaultPlan plan(spec, seed);
    pt.setFaultPlan(&plan);

    constexpr Addr kb4 = 4096, mb2 = 2ULL << 20, gb1 = 1ULL << 30;
    // Two windows in different PMD-CWT chunks (16GB each), each of 16
    // 2MB-table blocks holding two neighbouring regions, and four 1GB
    // slots of their own.
    std::vector<ModelRegion> regions(64);
    for (std::size_t i = 0; i < regions.size(); ++i)
        regions[i].base = (1ULL << 40) + (i / 32) * (3ULL << 34)
            + (i % 32 / 2) * (8 * mb2) + (i % 2) * mb2;
    const Addr giant_base = 1ULL << 42;
    std::vector<Addr> giant(4, invalid_addr);
    Addr next_pa = 1ULL << 36;
    auto frame = [&](PageSize size) {
        next_pa = (next_pa + pageBytes(size) - 1) & ~(pageBytes(size) - 1);
        const Addr pa = next_pa;
        next_pa += pageBytes(size);
        return pa;
    };
    auto map4k = [&](ModelRegion &r, int first, int pages) {
        std::vector<Addr> frames;
        for (int i = 0; i < pages; ++i)
            frames.push_back(frame(PageSize::Page4K));
        std::size_t taken = 0;
        auto next_frame = [&] { return frames[taken++]; };
        pt.mapBlock(r.base + first * kb4, pages, PageSize::Page4K,
                    next_frame);
        for (int i = 0; i < pages; ++i) {
            r.small_count += r.small[first + i] == invalid_addr;
            r.small[first + i] = frames[i];
        }
    };
    auto unmap4k = [&](ModelRegion &r, int page) {
        pt.unmap(r.base + page * kb4, PageSize::Page4K);
        r.small[page] = invalid_addr;
        --r.small_count;
    };

    Rng rng(seed);
    Rng probe_rng(seed ^ 0x51);
    int resizing_2m_hits = 0;
    auto expect = [&](Addr va) {
        Translation want;
        for (const ModelRegion &r : regions) {
            if (va < r.base || va >= r.base + mb2)
                continue;
            if (r.huge != invalid_addr)
                want = {r.huge, PageSize::Page2M, true};
            else if (const Addr pa = r.small[(va - r.base) / kb4];
                     pa != invalid_addr)
                want = {pa, PageSize::Page4K, true};
        }
        if (va >= giant_base && va < giant_base + giant.size() * gb1) {
            if (const Addr pa = giant[(va - giant_base) / gb1];
                pa != invalid_addr)
                want = {pa, PageSize::Page1G, true};
        }
        const Translation got = pt.lookup(va);
        const Translation every = lookupEveryTable(pt, va);
        resizing_2m_hits += want.valid && want.size == PageSize::Page2M
            && pt.tableOf(PageSize::Page2M).resizing();
        ASSERT_EQ(got.valid, every.valid) << std::hex << va;
        ASSERT_EQ(got.valid, want.valid) << std::hex << va;
        if (!want.valid)
            return;
        ASSERT_EQ(got.pa, every.pa) << std::hex << va;
        ASSERT_EQ(got.size, every.size) << std::hex << va;
        ASSERT_EQ(got.pa, want.pa) << std::hex << va;
        ASSERT_EQ(got.size, want.size) << std::hex << va;
    };
    // Mapped and unmapped pages of @p r, its first and last byte and
    // the bytes either side of it.
    auto probeRegion = [&](const ModelRegion &r, int pages) {
        for (int i = 0; i < pages; ++i)
            expect(r.base + probe_rng.below(512) * kb4
                   + probe_rng.below(kb4));
        for (const Addr va : {r.base - 1, r.base, r.base + mb2 - 1,
                              r.base + mb2})
            expect(va);
    };

    // Half the regions start 2MB-mapped, so the first (injected)
    // resize windows open in the 2MB table as well as the 4KB one.
    for (std::size_t i = 0; i < regions.size(); i += 2) {
        regions[i].huge = frame(PageSize::Page2M);
        pt.map(regions[i].base, regions[i].huge, PageSize::Page2M);
        map4k(regions[i + 1], static_cast<int>(rng.below(64)) * 8, 8);
        probeRegion(regions[i], 8);
        probeRegion(regions[i + 1], 8);
    }
    for (int op = 0; op < 500; ++op) {
        ModelRegion &r = regions[rng.below(regions.size())];
        const bool huge = r.huge != invalid_addr;
        const std::uint64_t pick = rng.below(100);
        if (pick < 40 && !huge) { // 4KB pages: 1-8 in one block
            const int first = static_cast<int>(rng.below(512));
            const int room = 8 - first % 8;
            map4k(r, first, 1 + static_cast<int>(rng.below(room)));
        } else if (pick < 55 && r.small_count > 0) { // 4KB unmap
            int page = static_cast<int>(rng.below(512));
            while (r.small[page] == invalid_addr)
                page = (page + 1) % 512;
            unmap4k(r, page);
        } else if (pick < 65 && !huge && r.small_count == 0) { // 2MB map
            r.huge = frame(PageSize::Page2M);
            pt.map(r.base, r.huge, PageSize::Page2M);
        } else if (pick < 72 && huge) { // 2MB unmap
            pt.unmap(r.base, PageSize::Page2M);
            r.huge = invalid_addr;
        } else if (pick < 82 && huge) { // split into 512 4KB pages
            pt.unmap(r.base, PageSize::Page2M);
            r.huge = invalid_addr;
            for (int first = 0; first < 512; first += 8)
                map4k(r, first, 8);
        } else if (pick < 92 && r.small_count > 0) { // collapse
            for (int page = 0; page < 512; ++page)
                if (r.small[page] != invalid_addr)
                    unmap4k(r, page);
            r.huge = frame(PageSize::Page2M);
            pt.map(r.base, r.huge, PageSize::Page2M);
        } else if (pick >= 92) { // 1GB map or unmap
            const std::size_t slot = rng.below(giant.size());
            const Addr va = giant_base + slot * gb1;
            if (giant[slot] == invalid_addr) {
                giant[slot] = frame(PageSize::Page1G);
                pt.map(va, giant[slot], PageSize::Page1G);
            } else {
                pt.unmap(va, PageSize::Page1G);
                giant[slot] = invalid_addr;
            }
        }
        probeRegion(r, 32);
        probeRegion(regions[probe_rng.below(regions.size())], 8);
        for (std::size_t slot = 0; slot < giant.size(); ++slot)
            expect(giant_base + slot * gb1 + probe_rng.below(gb1));
        if (::testing::Test::HasFatalFailure())
            return;
        if (op % 50 == 49)
            pt.auditInvariants(pte_cwt ? "host" : "guest");
    }
    EXPECT_GT(plan.counters().forced_resizes, 0u);
    EXPECT_GT(plan.counters().forced_kicks, 0u);
    EXPECT_GT(pt.tableOf(PageSize::Page2M).resizeCount(), 1u);
    EXPECT_GT(resizing_2m_hits, 0);
    EXPECT_GT(pt.mappingCount(PageSize::Page2M), 0u);
    EXPECT_GT(pt.mappingCount(PageSize::Page4K), 0u);
    for (const ModelRegion &r : regions)
        for (Addr va = r.base; va < r.base + mb2; va += kb4)
            expect(va + probe_rng.below(kb4));
    pt.auditInvariants(pte_cwt ? "host" : "guest");
}

} // namespace

/**
 * The CWT-directed lookup finds what a probe of every table finds, for
 * a guest table (no PTE-CWT) and a host table (with one), through 4KB
 * and 2MB maps and unmaps, splits, collapses and 1GB pages, under
 * injected resize windows (2MB lookups then probe one way in both
 * generations) and kick exhaustion.
 */
TEST(EcptLookup, CwtDirectedMatchesEveryTable)
{
    for (const bool pte_cwt : {false, true}) {
        for (const std::uint64_t seed : {11, 12}) {
            SCOPED_TRACE(std::string(pte_cwt ? "host" : "guest")
                         + " seed " + std::to_string(seed));
            checkCwtDirectedLookup(pte_cwt, seed);
        }
    }
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
