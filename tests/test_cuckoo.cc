/** @file Unit + property tests for the elastic cuckoo hash table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <unordered_map>

#include "common/fault.hh"
#include "pt/cuckoo.hh"
#include "tests/test_util.hh"

namespace necpt
{

namespace
{

using Table = ElasticCuckooTable<std::uint64_t>;

CuckooConfig
tinyConfig(std::uint64_t slots = 64, int ways = 3)
{
    CuckooConfig cfg;
    cfg.ways = ways;
    cfg.initial_slots = slots;
    cfg.slot_bytes = 64;
    return cfg;
}

} // namespace

TEST(Cuckoo, InsertFindErase)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig());
    table.insert(42, 4200);
    auto hit = table.find(42);
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit.value, 4200u);
    EXPECT_GE(hit.way, 0);
    EXPECT_LT(hit.way, 3);
    EXPECT_TRUE(table.erase(42));
    EXPECT_FALSE(table.find(42));
    EXPECT_FALSE(table.erase(42));
}

TEST(Cuckoo, UpdateInPlace)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig());
    table.insert(7, 1);
    table.insert(7, 2);
    EXPECT_EQ(*table.find(7).value, 2u);
    EXPECT_EQ(table.size(), 1u);
}

TEST(Cuckoo, SlotAddrWithinWayRegion)
{
    BumpAllocator alloc(0x100000);
    Table table(alloc, tinyConfig(64, 3));
    table.insert(99, 1);
    const auto hit = table.find(99);
    const Addr base = table.wayBase(hit.way);
    EXPECT_GE(hit.slot_addr, base);
    EXPECT_LT(hit.slot_addr, base + 64 * table.slotBytes());
}

TEST(Cuckoo, ProbeAddrsCoverResidentSlot)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig());
    for (std::uint64_t k = 0; k < 50; ++k)
        table.insert(k, k * 10);
    for (std::uint64_t k = 0; k < 50; ++k) {
        std::vector<Addr> probes;
        table.probeAddrs(k, (1u << table.numWays()) - 1, probes);
        const auto hit = table.find(k);
        ASSERT_TRUE(hit);
        EXPECT_NE(std::find(probes.begin(), probes.end(), hit.slot_addr),
                  probes.end());
    }
}

TEST(Cuckoo, ProbeMaskRestrictsWays)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(64, 3));
    std::vector<Addr> probes;
    table.probeAddrs(5, 0b010, probes);
    EXPECT_EQ(probes.size(), 1u); // one way, no resize in flight
    probes.clear();
    table.probeAddrs(5, 0b111, probes);
    EXPECT_EQ(probes.size(), 3u);
}

TEST(Cuckoo, DisplacementsReported)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(32, 2);
    cfg.resize_threshold = 0.95; // force collisions before resizing
    Table table(alloc, cfg);
    std::map<std::uint64_t, int> way_of;
    auto record = [&](std::uint64_t key, const std::uint64_t &, int way) {
        way_of[key] = way;
    };
    table.setMoveCallback(record);
    for (std::uint64_t k = 0; k < 40; ++k)
        table.insert(k, k);
    // Every present key's callback-reported way matches reality.
    for (std::uint64_t k = 0; k < 40; ++k) {
        const auto hit = table.find(k);
        ASSERT_TRUE(hit);
        if (!hit.in_old_generation) {
            EXPECT_EQ(way_of[k], hit.way) << "key " << k;
        }
    }
    EXPECT_GT(table.rehashMoves(), 0u);
}

TEST(Cuckoo, ElasticResizeTriggersAtThreshold)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(32, 3));
    std::uint64_t k = 0;
    while (!table.resizing() && k < 1000)
        table.insert(k++, k);
    EXPECT_TRUE(table.resizing());
    // Load factor at trigger is near the 0.6 threshold.
    EXPECT_GT(static_cast<double>(k) / (32.0 * 3), 0.5);
    // During resize, probes cover both generations.
    std::vector<Addr> probes;
    table.probeAddrs(0, 0b111, probes);
    EXPECT_EQ(probes.size(), 6u);
}

TEST(Cuckoo, NoEntryLostAcrossResizes)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    constexpr std::uint64_t n = 5000;
    for (std::uint64_t k = 0; k < n; ++k)
        table.insert(k * 7 + 1, k);
    EXPECT_GT(table.resizeCount(), 0u);
    for (std::uint64_t k = 0; k < n; ++k) {
        auto hit = table.find(k * 7 + 1);
        ASSERT_TRUE(hit) << "key " << k * 7 + 1;
        EXPECT_EQ(*hit.value, k);
    }
    EXPECT_EQ(table.size(), n);
}

TEST(Cuckoo, GradualMigrationDrains)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    std::uint64_t k = 0;
    while (!table.resizing())
        table.insert(k++, 0);
    // Keep inserting: migration progresses a few entries per insert
    // and eventually the retiring generation is freed.
    std::uint64_t inserts = 0;
    while (table.resizing() && inserts < 10000) {
        table.insert(100000 + inserts, 0);
        ++inserts;
        if (table.loadFactor() > 0.55)
            break; // next resize imminent; stop the experiment
    }
    EXPECT_GT(alloc.frees, 0);
}

TEST(Cuckoo, FinishResizeForcesCompletion)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    std::uint64_t k = 0;
    while (!table.resizing())
        table.insert(k++, 0);
    table.finishResize();
    EXPECT_FALSE(table.resizing());
    for (std::uint64_t i = 0; i < k; ++i)
        EXPECT_TRUE(table.find(i));
}

TEST(Cuckoo, ResizeMovesCounted)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(16, 3));
    for (std::uint64_t k = 0; k < 200; ++k)
        table.insert(k, k);
    table.finishResize();
    EXPECT_GT(table.resizeMoves(), 0u);
}

TEST(Cuckoo, StructureBytesMatchGeometry)
{
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(64, 3));
    EXPECT_EQ(table.structureBytes(), 64u * 3 * 64);
}

/** The Section-4.4 staleness argument: inserts can relocate *other*
 *  keys, so a cached pointer to a slot would go stale. */
TEST(Cuckoo, InsertsRelocateOtherKeys)
{
    BumpAllocator alloc;
    CuckooConfig cfg = tinyConfig(64, 2);
    cfg.resize_threshold = 0.95;
    Table table(alloc, cfg);
    // Fill densely, recording each key's slot address.
    std::map<std::uint64_t, Addr> addr_of;
    for (std::uint64_t k = 0; k < 100; ++k) {
        table.insert(k, k);
        for (std::uint64_t j = 0; j <= k; ++j) {
            auto hit = table.find(j);
            if (hit)
                addr_of[j] = hit.slot_addr;
        }
    }
    // At least one previously-placed key moved at some point: its
    // final address differs from some historical one. Detect via the
    // rehash counter, which only counts displacements of *resident*
    // entries.
    EXPECT_GT(table.rehashMoves(), 0u);
}

/**
 * The packed key/value layout against a std::unordered_map reference,
 * through inserts, erases, forced kick exhaustion and forced resize
 * windows. An insert()-driven twin with the same seeds must end with
 * identical accounting, so upsert() is insert() with one lookup; its
 * reported way and placed flag must match find() and the move
 * callback.
 */
TEST(Cuckoo, PackedSlotsMatchReferenceUnderFaults)
{
    BumpAllocator alloc_a, alloc_b;
    const CuckooConfig cfg = tinyConfig(16, 3);
    Table a(alloc_a, cfg), b(alloc_b, cfg);
    FaultSpec spec;
    spec.kick_prob = 0.1;
    spec.resize_prob = 0.05;
    FaultPlan plan_a(spec, 9), plan_b(spec, 9);
    a.setFaultPlan(&plan_a);
    b.setFaultPlan(&plan_b);

    std::uint64_t upserting = Table::empty_key;
    int reported_way = -1;
    auto record = [&](std::uint64_t key, const std::uint64_t &, int way) {
        if (key == upserting)
            reported_way = way;
    };
    a.setMoveCallback(record);

    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(0x5107);
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t key = rng.below(600);
        if (rng.chance(0.7)) {
            const std::uint64_t value = rng.next();
            upserting = key;
            reported_way = -1;
            const auto placed =
                a.upsert(key, [&](std::uint64_t &v) { v = value; });
            upserting = Table::empty_key;
            b.insert(key, value);
            ref[key] = value;
            const auto hit = a.find(key);
            ASSERT_TRUE(hit) << "key " << key;
            EXPECT_EQ(placed.way, hit.way) << "key " << key;
            EXPECT_EQ(placed.placed, reported_way >= 0) << "key " << key;
            if (placed.placed) {
                EXPECT_EQ(placed.way, reported_way) << "key " << key;
            }
        } else {
            EXPECT_EQ(a.erase(key), ref.erase(key) > 0) << "key " << key;
            b.erase(key);
        }
        ASSERT_EQ(a.size(), ref.size()) << "op " << op;
        ASSERT_EQ(a.homelessCount(), 0u) << "op " << op;
    }
    EXPECT_GT(a.injectedKickFailures(), 0u);
    EXPECT_GT(a.injectedResizes(), 0u);
    EXPECT_GT(a.rehashMoves(), 0u);
    EXPECT_EQ(a.rehashMoves(), b.rehashMoves());
    EXPECT_EQ(a.resizeCount(), b.resizeCount());
    EXPECT_EQ(a.resizeMoves(), b.resizeMoves());
    EXPECT_EQ(a.size(), b.size());

    for (std::uint64_t key = 0; key < 600; ++key) {
        const auto hit = a.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(static_cast<bool>(hit), it != ref.end()) << "key " << key;
        if (hit) {
            EXPECT_EQ(*hit.value, it->second) << "key " << key;
        }
    }
    // forEach visits each resident entry once, where find() sees it,
    // and the twin holds every entry at the same place.
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    a.forEach([&](std::uint64_t key, const std::uint64_t &value, int way,
                  bool in_old) {
        EXPECT_TRUE(seen.emplace(key, value).second) << "key " << key;
        const auto hit = a.find(key);
        EXPECT_EQ(hit.way, way) << "key " << key;
        EXPECT_EQ(hit.in_old_generation, in_old) << "key " << key;
        // Both allocators hand out the same address sequence.
        const auto twin = b.find(key);
        ASSERT_TRUE(twin) << "key " << key;
        EXPECT_EQ(twin.slot_addr, hit.slot_addr) << "key " << key;
    });
    EXPECT_EQ(seen, ref);
}

/**
 * One upsert standing for n writes against n single upserts of the
 * same key, each writing its own word of an 8-word payload, under
 * forced kick exhaustion and forced resize windows from equal seeds.
 * Fault draws, migration, resizes and every entry's location must
 * match, so the multi-write upsert is exactly the single ones.
 */
TEST(Cuckoo, UpsertUpdatesEqualRepeatedUpserts)
{
    using Block = std::array<std::uint64_t, 8>;
    using BlockTable = ElasticCuckooTable<Block>;
    BumpAllocator alloc_a, alloc_b;
    const CuckooConfig cfg = tinyConfig(16, 3);
    BlockTable a(alloc_a, cfg), b(alloc_b, cfg);
    FaultSpec spec;
    spec.kick_prob = 0.1;
    spec.resize_prob = 0.05;
    FaultPlan plan_a(spec, 11), plan_b(spec, 11);
    a.setFaultPlan(&plan_a);
    b.setFaultPlan(&plan_b);

    auto word = [](std::uint64_t key, int j) {
        return key * 8 + static_cast<std::uint64_t>(j) + 1;
    };
    Rng rng(0xB10C);
    for (int op = 0; op < 1500; ++op) {
        // Mostly fresh keys (resizes) with some re-writes of old ones.
        const std::uint64_t key =
            rng.chance(0.8) ? 1000 + static_cast<std::uint64_t>(op)
                            : 1000 + rng.below(op + 1);
        const int first = static_cast<int>(rng.below(8));
        const int writes = 1 + static_cast<int>(rng.below(8 - first));
        const auto placed = a.upsert(
            key,
            [&](Block &block) {
                for (int j = first; j < first + writes; ++j)
                    block[j] = word(key, j);
            },
            writes);
        for (int j = first; j < first + writes; ++j)
            b.upsert(key, [&](Block &block) { block[j] = word(key, j); });
        EXPECT_EQ(placed.way, a.find(key).way) << "op " << op;
        ASSERT_EQ(a.homelessCount(), 0u) << "op " << op;
    }
    EXPECT_GT(a.injectedKickFailures(), 0u);
    EXPECT_GT(a.injectedResizes(), 0u);
    EXPECT_GT(a.resizeCount(), plan_a.counters().forced_resizes);
    EXPECT_EQ(a.injectedKickFailures(), b.injectedKickFailures());
    EXPECT_EQ(a.injectedResizes(), b.injectedResizes());
    EXPECT_EQ(a.rehashMoves(), b.rehashMoves());
    EXPECT_EQ(a.resizeCount(), b.resizeCount());
    EXPECT_EQ(a.resizeMoves(), b.resizeMoves());
    EXPECT_EQ(a.resizing(), b.resizing());
    EXPECT_EQ(a.size(), b.size());

    struct Where
    {
        Block block;
        int way;
        bool in_old;
        Addr slot_addr;
        bool operator==(const Where &) const = default;
    };
    auto contents = [](BlockTable &table) {
        std::map<std::uint64_t, Where> out;
        table.forEach([&](std::uint64_t key, const Block &block, int way,
                          bool in_old) {
            out.emplace(key,
                        Where{block, way, in_old, table.find(key).slot_addr});
        });
        return out;
    };
    const auto in_a = contents(a);
    EXPECT_EQ(in_a.size(), a.size());
    EXPECT_TRUE(in_a == contents(b));
}

/**
 * reserve() lands on the generation elastic growth ends on: for entry
 * counts just below, at and just past each resize point, a reserved
 * table holds them in the elastic table's geometry without resizing.
 * A table that holds a key, is mid-resize, or would not have grown is
 * left as it is.
 */
TEST(Cuckoo, ReserveReachesElasticGeometry)
{
    const CuckooConfig cfg = tinyConfig(16, 3);
    std::vector<std::uint64_t> counts{0, 1};
    for (std::uint64_t slots = cfg.initial_slots; slots <= 256; slots *= 2) {
        // The last count whose load factor stays at the threshold.
        std::uint64_t at = 0;
        while (static_cast<double>(at + 1)
                   / static_cast<double>(slots * cfg.ways)
               <= cfg.resize_threshold)
            ++at;
        counts.insert(counts.end(), {at - 1, at, at + 1});
    }
    for (const std::uint64_t n : counts) {
        SCOPED_TRACE(n);
        BumpAllocator alloc_elastic, alloc_reserved;
        Table elastic(alloc_elastic, cfg), reserved(alloc_reserved, cfg);
        reserved.reserve(n);
        for (std::uint64_t k = 0; k < n; ++k) {
            elastic.insert(k * 7 + 1, k);
            reserved.insert(k * 7 + 1, k);
            ASSERT_FALSE(reserved.resizing());
        }
        elastic.finishResize();
        EXPECT_EQ(reserved.slotsPerWay(), elastic.slotsPerWay());
        EXPECT_EQ(reserved.structureBytes(), elastic.structureBytes());
        EXPECT_EQ(reserved.resizeCount(), 0u);
        EXPECT_EQ(reserved.resizeMoves(), 0u);
        EXPECT_EQ(reserved.size(), n);
        for (std::uint64_t k = 0; k < n; ++k)
            ASSERT_TRUE(reserved.find(k * 7 + 1)) << k;
    }

    // Nothing to grow: no region is released or carved.
    BumpAllocator alloc;
    Table fits(alloc, cfg);
    const Addr way0 = fits.wayBase(0);
    fits.reserve(counts[3]);
    EXPECT_EQ(fits.wayBase(0), way0);
    EXPECT_EQ(alloc.allocs, cfg.ways);
    EXPECT_EQ(alloc.frees, 0);

    // A table with a key keeps its geometry.
    Table holding(alloc, cfg);
    holding.insert(5, 5);
    const Addr holding_way0 = holding.wayBase(0);
    holding.reserve(10000);
    EXPECT_EQ(holding.slotsPerWay(), cfg.initial_slots);
    EXPECT_EQ(holding.wayBase(0), holding_way0);
    EXPECT_TRUE(holding.find(5));

    // So does a table mid-resize, emptied or not.
    Table growing(alloc, cfg);
    std::uint64_t k = 0;
    while (!growing.resizing())
        growing.insert(k++, 0);
    const std::uint64_t bytes = growing.structureBytes();
    const std::uint64_t slots = growing.slotsPerWay();
    growing.reserve(10000);
    EXPECT_TRUE(growing.resizing());
    EXPECT_EQ(growing.structureBytes(), bytes);
    for (std::uint64_t i = 0; i < k; ++i)
        growing.erase(i);
    ASSERT_TRUE(growing.resizing());
    growing.reserve(10000);
    EXPECT_EQ(growing.slotsPerWay(), slots);
    EXPECT_EQ(growing.structureBytes(), bytes);
}

/** Parameterized sweep over ways/slots: membership is exact. */
class CuckooGeometry
    : public ::testing::TestWithParam<std::pair<int, std::uint64_t>>
{};

TEST_P(CuckooGeometry, MembershipExact)
{
    const auto [ways, slots] = GetParam();
    BumpAllocator alloc;
    Table table(alloc, tinyConfig(slots, ways));
    std::set<std::uint64_t> present;
    Rng rng(static_cast<std::uint64_t>(ways) * 1000 + slots);
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t key = rng.below(500);
        if (rng.chance(0.7)) {
            table.insert(key, key);
            present.insert(key);
        } else {
            table.erase(key);
            present.erase(key);
        }
    }
    for (std::uint64_t key = 0; key < 500; ++key)
        EXPECT_EQ(static_cast<bool>(table.find(key)),
                  present.count(key) > 0)
            << "key " << key;
    EXPECT_EQ(table.size(), present.size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CuckooGeometry,
    ::testing::Values(std::make_pair(2, 32ULL),
                      std::make_pair(2, 128ULL),
                      std::make_pair(3, 16ULL),
                      std::make_pair(3, 64ULL),
                      std::make_pair(4, 64ULL)));

} // namespace necpt
