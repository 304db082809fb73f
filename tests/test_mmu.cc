/** @file Unit tests for the MMU structures: AssocCache, TLBs, PWC,
 *  NTLB, STC, CWC, adaptive controller, POM-TLB. */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "mem/cache.hh"
#include "mmu/assoc_cache.hh"
#include "mmu/cwc.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/tlb.hh"
#include "mmu/walk_caches.hh"
#include "pt/cwt.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "tests/test_util.hh"

namespace necpt
{

// ------------------------------------------------------------ AssocCache

TEST(AssocCache, FindInsertLru)
{
    AssocCache<int> cache(2); // FA, 2 entries
    EXPECT_EQ(cache.find(1), nullptr);
    cache.insert(1, 10);
    cache.insert(2, 20);
    EXPECT_EQ(*cache.find(1), 10); // 1 now MRU
    cache.insert(3, 30);           // evicts 2
    EXPECT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(cache.peek(2), nullptr);
    EXPECT_NE(cache.peek(3), nullptr);
}

TEST(AssocCache, StatsCounted)
{
    // The array counts nothing; each owner counts its own lookups.
    NestedTlb ntlb(4);
    ntlb.lookup(0x1000);
    ntlb.fill(0x1000, 0xA000);
    ntlb.lookup(0x1000);
    EXPECT_EQ(ntlb.stats().hits(), 1u);
    EXPECT_EQ(ntlb.stats().misses(), 1u);
    ntlb.resetStats();
    EXPECT_EQ(ntlb.stats().accesses(), 0u);

    PageWalkCache pwc(2, 4, 4);
    pwc.lookup(3, 0x4000'0000);
    pwc.fill(3, 0x4000'0000);
    pwc.lookup(3, 0x4000'0000);
    pwc.lookup(1, 0x4000'0000); // below the cached levels: not counted
    EXPECT_EQ(pwc.stats(3).hits(), 1u);
    EXPECT_EQ(pwc.stats(3).misses(), 1u);
    EXPECT_EQ(pwc.stats(2).accesses(), 0u);
    pwc.resetStats();
    EXPECT_EQ(pwc.stats(3).accesses(), 0u);
}

TEST(AssocCache, PeekDoesNotDisturb)
{
    AssocCache<int> cache(2);
    cache.insert(1, 10);
    cache.insert(2, 20);
    cache.peek(1); // no recency update
    cache.find(2); // 2 MRU
    cache.insert(3, 30); // evicts 1 (peek didn't refresh it)
    EXPECT_EQ(cache.peek(1), nullptr);
}

TEST(AssocCache, SetAssociativeRespectsSets)
{
    AssocCache<int> cache(8, 2); // 4 sets x 2 ways
    EXPECT_EQ(cache.capacity(), 8u);
    cache.insert(0, 0);
    cache.insert(4, 4);
    // Whatever the set mapping, one set's two ways hold both keys.
    EXPECT_NE(cache.peek(0), nullptr);
    EXPECT_NE(cache.peek(4), nullptr);
}

// ------------------------------------------------------ simd::findKey

namespace
{

/**
 * Every row length a set can have up to 33 ways, each at four starting
 * alignments, so rows cover partial vectors, whole ones and a tail.
 * The keys agree in their low half, and each absent needle differs
 * from a present key in one half only, so only a full-width compare
 * tells them apart. Both scans must return the expected index: the
 * lowest match, or -1.
 */
template <typename T>
void
checkVectorScan()
{
    constexpr int half = 4 * sizeof(T);
    constexpr T empty = AssocCache<int, T>::empty_tag;
    const auto key = [](int i) {
        return static_cast<T>((static_cast<T>(i) + 1) << (half + 1)
                              | 0x5A5A);
    };
    std::vector<T> buf(33 + 3);
    for (int n = 1; n <= 33; ++n) {
        for (int offset = 0; offset < 4; ++offset) {
            SCOPED_TRACE("row of " + std::to_string(n) + " at offset "
                         + std::to_string(offset));
            T *row = buf.data() + offset;
            const auto expect = [&](T needle, int index) {
                EXPECT_EQ(simd::findKeyScalar(row, n, needle), index);
                EXPECT_EQ(simd::findKey(row, n, needle), index);
            };
            for (int i = 0; i < n; ++i)
                row[i] = key(i);

            for (int i = 0; i < n; ++i) {
                expect(key(i), i);
                expect(key(i) ^ 1, -1);
                expect(key(i) ^ T{1} << (2 * half - 2), -1);
            }
            expect(key(n), -1);
            expect(0x5A5A, -1);
            expect(empty, -1);

            for (int i = 0; i < n; ++i) {
                for (int j = i + 1; j < n; ++j) {
                    row[j] = key(i);
                    expect(key(i), i);
                    row[j] = key(j);
                }
            }

            // Every other line invalid, as in a partly filled set.
            for (int i = 0; i < n; i += 2)
                row[i] = empty;
            expect(empty, 0);
            for (int i = 0; i < n; ++i)
                expect(key(i), i % 2 ? i : -1);
        }
    }
}

} // namespace

/** The MMU structures' 64-bit rows: four keys per compare. */
TEST(SimdFindKey, VectorScanEqualsScalar)
{
    checkVectorScan<std::uint64_t>();
}

/** The data caches' 32-bit tag rows: eight tags per compare. */
TEST(SimdFindKey, VectorScan32EqualsScalar)
{
    checkVectorScan<std::uint32_t>();
}

// ------------------------------------ AssocCache key-range invalidation

namespace
{

/**
 * Brute-force model of AssocCache: one {key, value, tick, valid}
 * record per line, set `key % sets`, and an invalidation that visits
 * every line. Victims are the first invalid way of the set, else the
 * smallest tick (ties to the lowest way), where an invalid line keeps
 * the tick it had when it was dropped.
 */
class RefCache
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};

    RefCache(std::size_t capacity, std::size_t ways)
        : assoc(ways == 0 ? capacity : ways), sets(capacity / assoc),
          lines(capacity)
    {}

    std::size_t
    lineOf(std::uint64_t key) const
    {
        const std::size_t base = setOf(key) * assoc;
        for (std::size_t i = base; i < base + assoc; ++i)
            if (lines[i].valid && lines[i].key == key)
                return i;
        return npos;
    }

    bool
    find(std::uint64_t key)
    {
        const std::size_t i = lineOf(key);
        if (i == npos)
            return false;
        lines[i].tick = ++tick;
        return true;
    }

    /** @return the line written. */
    std::size_t
    insert(std::uint64_t key, std::uint64_t value)
    {
        std::size_t victim = lineOf(key);
        if (victim == npos) {
            const std::size_t base = setOf(key) * assoc;
            victim = base;
            for (std::size_t i = base; i < base + assoc; ++i) {
                const Line &l = lines[i];
                const Line &v = lines[victim];
                if ((!l.valid && v.valid)
                    || (l.valid == v.valid && l.tick < v.tick))
                    victim = i;
            }
        }
        lines[victim] = {key, value, ++tick, true};
        return victim;
    }

    std::size_t
    invalidate(std::uint64_t lo, std::uint64_t hi)
    {
        std::size_t count = 0;
        for (Line &l : lines) {
            if (l.valid && l.key >= lo && l.key <= hi) {
                l.valid = false;
                ++count;
            }
        }
        return count;
    }

    std::size_t setOf(std::uint64_t key) const { return key % sets; }
    std::uint64_t valueAt(std::size_t i) const { return lines[i].value; }

    const std::size_t assoc;
    const std::size_t sets;

  private:
    struct Line
    {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
        std::uint64_t tick = 0;
        bool valid = false;
    };

    std::vector<Line> lines;
    std::uint64_t tick = 0;
};

struct CacheGeom
{
    const char *name;
    std::size_t capacity;
    std::size_t ways; //!< 0 = fully associative

    /** Print as the geometry name; the default byte dump would put
     *  this build's string addresses into the listed test name. */
    friend void PrintTo(const CacheGeom &g, std::ostream *os)
    {
        *os << g.name;
    }
};

/**
 * Drives an AssocCache of tag width @p TagT and a RefCache with the
 * same operations and compares them. A present key must sit in the
 * same line in both — the line is read from the address peek()
 * returns, relative to the first key inserted — so the test pins
 * which line every insert replaces, not just which keys survive.
 */
template <typename TagT = std::uint64_t>
class CacheDiff
{
  public:
    using Dut = AssocCache<std::uint64_t, TagT>;

    explicit CacheDiff(const CacheGeom &g)
        : dut(g.capacity, g.ways), ref(g.capacity, g.ways)
    {}

    /** Find in both; checks that both hit or both miss. */
    void
    find(std::uint64_t key)
    {
        const std::uint64_t *v = dut.find(key);
        ASSERT_EQ(v != nullptr, ref.find(key)) << "key " << key;
        ++(v ? hits : misses);
    }

    /** Insert into both; checks the line written and what it held. */
    void
    insert(std::uint64_t key)
    {
        const std::uint64_t value = key * 7 + ++inserts;
        dut.insert(key, value);
        const std::size_t line = ref.insert(key, value);
        if (!line0)
            line0 = dut.peek(key) - line;
        ever.insert(key);
        ASSERT_NE(dut.peek(key), nullptr);
        ASSERT_EQ(static_cast<std::size_t>(dut.peek(key) - line0), line)
            << "key " << key << " landed in another line";
    }

    /** Compare the whole observable state over every key ever seen. */
    void
    compareAll() const
    {
        for (const std::uint64_t key : ever)
            compareKey(key);
    }

    void
    compareKey(std::uint64_t key) const
    {
        const std::uint64_t *v = dut.peek(key);
        const std::size_t line = ref.lineOf(key);
        ASSERT_EQ(v != nullptr, line != RefCache::npos) << "key " << key;
        if (v) {
            ASSERT_EQ(static_cast<std::size_t>(v - line0), line)
                << "key " << key;
            ASSERT_EQ(*v, ref.valueAt(line)) << "key " << key;
        }
    }

    /**
     * Insert @p ways keys no line holds into set @p set of both caches,
     * taking tags down from @p tag: each insert must replace the same
     * victim in both.
     */
    void
    fillSet(std::size_t set, std::uint64_t tag)
    {
        for (std::size_t i = 0; i < ref.assoc; ++i) {
            insert((tag - i) * ref.sets + set);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    Dut dut;
    RefCache ref;
    std::set<std::uint64_t> ever;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    const std::uint64_t *line0 = nullptr;
    std::uint64_t inserts = 0;
};

class AssocCacheInvalidate : public ::testing::TestWithParam<CacheGeom>
{};

/**
 * Random finds, inserts and key-range invalidations of several widths
 * on an array of tag width @p TagT, compared line by line with
 * RefCache after every invalidation and after the next `assoc` misses
 * into every set the range maps to.
 */
template <typename TagT>
void
checkKeyRangeInvalidation(const CacheGeom &g)
{
    const std::size_t assoc = g.ways == 0 ? g.capacity : g.ways;
    const std::size_t sets = g.capacity / assoc;
    // A universe of 3x the capacity keeps every set contended.
    const std::uint64_t universe = 3 * g.capacity + 5;

    for (const std::uint64_t width :
         {std::uint64_t{1}, std::uint64_t{sets - 1}, std::uint64_t{sets},
          std::uint64_t{sets + 1}, std::uint64_t{512}}) {
        if (width == 0)
            continue;
        SCOPED_TRACE("range of " + std::to_string(width) + " keys");
        CacheDiff<TagT> diff(g);
        Rng rng(0xC0FFEE + width);
        // Probe keys lie above the universe and are never reused, so
        // each probe insert misses and has to pick a victim.
        std::uint64_t next_probe = universe;

        for (int round = 0; round < 40; ++round) {
            for (std::size_t op = 0; op < 2 * g.capacity; ++op) {
                const std::uint64_t key = rng.below(universe);
                if (rng.below(3) == 0)
                    diff.find(key);
                else
                    diff.insert(key);
                if (::testing::Test::HasFatalFailure())
                    return;
            }

            // Some ranges run past the universe into the probe keys.
            const std::uint64_t lo = rng.below(universe + width);
            const std::uint64_t hi = lo + width - 1;
            ASSERT_EQ(diff.dut.invalidateKeys(lo, hi),
                      diff.ref.invalidate(lo, hi))
                << "range [" << lo << ", " << hi << "]";
            diff.compareAll();
            if (::testing::Test::HasFatalFailure())
                return;

            // The next `assoc` misses into every set the range maps to
            // pick their victims by the survivors' ranks and the dropped
            // lines' stale ticks.
            std::vector<std::size_t> touched;
            for (std::uint64_t k = lo; k <= hi && touched.size() < sets;
                 ++k)
                touched.push_back(diff.ref.setOf(k));
            for (const std::size_t set : touched) {
                for (std::size_t i = 0; i < assoc; ++i) {
                    while (diff.ref.setOf(next_probe) != set)
                        ++next_probe;
                    diff.insert(next_probe++);
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
            }
            diff.compareAll();
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

} // namespace

TEST_P(AssocCacheInvalidate, KeyRangeMatchesReference)
{
    checkKeyRangeInvalidation<std::uint64_t>(GetParam());
}

/** The data caches' 32-bit form: tags are `key / sets`, and a range
 *  sweep rebuilds each line's key from its set and tag. */
TEST_P(AssocCacheInvalidate, KeyRangeMatchesReferenceWith32BitTags)
{
    checkKeyRangeInvalidation<std::uint32_t>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocCacheInvalidate,
    ::testing::Values(CacheGeom{"L2Tlb_85x12", 1020, 12},
                      CacheGeom{"L1_64x8", 512, 8},
                      CacheGeom{"Sets12x16", 192, 16},
                      CacheGeom{"Sets16x4", 64, 4},
                      CacheGeom{"Sets8x4", 32, 4},
                      CacheGeom{"FullyAssoc4", 4, 0},
                      CacheGeom{"FullyAssoc24", 24, 0},
                      CacheGeom{"Sets2x2", 4, 2}),
    [](const ::testing::TestParamInfo<CacheGeom> &param_info) {
        return std::string(param_info.param.name);
    });

// ------------------------------------------- the data caches' 32-bit form

namespace
{

using CompactLines = AssocCache<std::uint64_t, std::uint32_t>;

class CompactAssocCache : public ::testing::TestWithParam<CacheGeom>
{};

} // namespace

/**
 * The data-cache shapes, driven with keys whose tags sit just below
 * the all-ones invalid tag: every line, every find's hit or miss, and
 * the next `ways` victims of every set match 64-bit ticks and keys.
 */
TEST_P(CompactAssocCache, MatchesReferenceAtTheTagBound)
{
    const CacheGeom g = GetParam();
    CacheDiff<std::uint32_t> diff(g);
    const std::size_t sets = diff.ref.sets;
    // The top 3x-capacity keys: tags from the largest one down.
    const std::uint64_t limit = CompactLines::keyLimit(sets);
    const std::uint64_t universe = 3 * g.capacity;
    const std::uint64_t base = limit - universe;
    EXPECT_EQ(limit / sets, CompactLines::empty_tag);
    Rng rng(0x7A65 + g.capacity);
    for (std::size_t op = 0; op < 4 * g.capacity; ++op) {
        const std::uint64_t key = base + rng.below(universe);
        if (rng.below(3) == 0)
            diff.find(key);
        else
            diff.insert(key);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    diff.compareAll();
    if (::testing::Test::HasFatalFailure())
        return;
    EXPECT_GT(diff.hits, 0u);
    EXPECT_GT(diff.misses, 0u);

    // Tags below the universe's are held by no line.
    const std::uint64_t fresh = base / sets - 1;
    for (std::size_t set = 0; set < sets; ++set) {
        diff.fillSet(set, fresh);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    diff.compareAll();
}

INSTANTIATE_TEST_SUITE_P(
    DataCaches, CompactAssocCache,
    ::testing::Values(CacheGeom{"L1_64x8", 64 * 8, 8},
                      CacheGeom{"L2_1024x8", 1024 * 8, 8},
                      CacheGeom{"L3_16384x16", 16384 * 16, 16},
                      CacheGeom{"L3_3core_6144x16", 6144 * 16, 16}),
    [](const ::testing::TestParamInfo<CacheGeom> &param_info) {
        return std::string(param_info.param.name);
    });

/**
 * A 32-bit counter renumbers every set's ticks before it wraps. Lines,
 * stale ticks of invalidated lines included, keep their order: the
 * array matches 64-bit ticks line by line before and after, and in
 * the next `ways` victims of every set.
 */
TEST(CompactAssocCache, RenumberingKeepsEveryVictim)
{
    for (const CacheGeom &g :
         {CacheGeom{"L1_64x8", 64 * 8, 8}, CacheGeom{"Sets6x16", 96, 16},
          CacheGeom{"FullyAssoc24", 24, 0}}) {
        SCOPED_TRACE(g.name);
        CacheDiff<std::uint32_t> diff(g);
        const std::size_t sets = diff.ref.sets;
        const std::uint64_t universe = 3 * g.capacity;
        Rng rng(0x5EED + g.capacity);
        // One phase of random traffic; every 50th operation drops a
        // small key range, leaving invalid lines with stale ticks.
        const auto traffic = [&](std::size_t ops) {
            for (std::size_t op = 0; op < ops; ++op) {
                const std::uint64_t key = rng.below(universe);
                if (op % 50 == 49) {
                    ASSERT_EQ(diff.dut.invalidateKeys(key, key + 2),
                              diff.ref.invalidate(key, key + 2));
                } else if (rng.below(3) == 0) {
                    diff.find(key);
                } else {
                    diff.insert(key);
                }
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        };

        // Part of the array only: some lines never get a tick.
        traffic(g.capacity / 2);
        if (::testing::Test::HasFatalFailure())
            return;
        diff.compareAll();
        if (::testing::Test::HasFatalFailure())
            return;

        // The counter wraps after 8 more ticks, while most lines still
        // hold the tick 0 they started with: renumbering must break
        // those ties by way, as the victim choice does.
        diff.dut.skipTicksTo(CompactLines::empty_tag - 8);
        traffic(4 * g.capacity);
        if (::testing::Test::HasFatalFailure())
            return;
        diff.compareAll();
        if (::testing::Test::HasFatalFailure())
            return;

        const std::uint64_t fresh = universe / sets + g.capacity;
        for (std::size_t set = 0; set < sets; ++set) {
            diff.fillSet(set, fresh);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        diff.compareAll();
    }
}

/** The machine checks the tag bound once, when it is built: physical
 *  memory past what the smallest data cache (the L1's 64 sets) can tag
 *  is a ConfigError, not a wrong answer. */
TEST(CompactAssocCache, MachinePastTheTagBoundIsAConfigError)
{
    const ExperimentConfig base = makeConfig(ConfigId::NestedEcpt);
    const std::uint64_t limit =
        SetAssocCache::addressLimit(base.memory.l1);
    EXPECT_EQ(limit, (std::uint64_t{CompactLines::empty_tag} * 64)
                         << line_shift);
    EXPECT_LT(limit, SetAssocCache::addressLimit(base.memory.l2));

    SimParams params;
    params.warmup_accesses = 0;
    params.measure_accesses = 1;
    params.scale_denominator = 256;
    ExperimentConfig host = base;
    host.system.host_phys_bytes = limit + (1ULL << 30);
    EXPECT_THROW(runSim(host, params, "GUPS"), ConfigError);
    ExperimentConfig guest = base;
    guest.system.guest_phys_bytes = limit + (1ULL << 30);
    EXPECT_THROW(runSim(guest, params, "GUPS"), ConfigError);
}

// ------------------------------------------------------------------ TLB

TEST(Tlb, MissThenInstallHit)
{
    TlbHierarchy tlb;
    auto r = tlb.lookup(0x1234);
    EXPECT_FALSE(r.hit);
    tlb.install(0x1234, {0xA000, PageSize::Page4K, true});
    r = tlb.lookup(0x1234);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.l1_hit);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(r.translation.apply(0x1234), 0xA234u);
}

TEST(Tlb, MultiPageSizeEntriesCoexist)
{
    TlbHierarchy tlb;
    tlb.install(0x1000, {0xA000, PageSize::Page4K, true});
    tlb.install(0x4000'0000, {0x1'0000'0000, PageSize::Page2M, true});
    tlb.install(0x80'0000'0000, {0x2'0000'0000, PageSize::Page1G, true});
    EXPECT_TRUE(tlb.lookup(0x1000).hit);
    auto r2m = tlb.lookup(0x4010'0000);
    EXPECT_TRUE(r2m.hit);
    EXPECT_EQ(r2m.translation.size, PageSize::Page2M);
    auto r1g = tlb.lookup(0x80'3FFF'FFFF);
    EXPECT_TRUE(r1g.hit);
    EXPECT_EQ(r1g.translation.size, PageSize::Page1G);
}

TEST(Tlb, L2CatchesL1Evictions)
{
    TlbConfig cfg;
    cfg.l1[0] = {4, 0}; // 4-entry FA L1 for 4K pages
    TlbHierarchy tlb(cfg);
    for (Addr va = 0; va < 16 * 4096; va += 4096)
        tlb.install(va, {va + 0x100000, PageSize::Page4K, true});
    // Early pages fell out of the tiny L1 but remain in the L2.
    const auto r = tlb.lookup(0x0);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.l1_hit);
    EXPECT_EQ(r.latency, cfg.l2_latency);
}

TEST(Tlb, StatsTrackMissRates)
{
    TlbHierarchy tlb;
    tlb.lookup(0x1000);
    tlb.install(0x1000, {0xA000, PageSize::Page4K, true});
    tlb.lookup(0x1000);
    EXPECT_EQ(tlb.l1Stats().misses(), 1u);
    EXPECT_EQ(tlb.l1Stats().hits(), 1u);
    EXPECT_EQ(tlb.l2Stats().misses(), 1u);
}

// ------------------------------------------------------------------ PWC

TEST(Pwc, PrefixSemantics)
{
    PageWalkCache pwc(2, 4, 32);
    const Addr va = 0x7123'4567'8000ULL;
    EXPECT_FALSE(pwc.lookup(4, va));
    pwc.fill(4, va);
    EXPECT_TRUE(pwc.lookup(4, va));
    // Same L4 slot: any VA sharing bits 47-39.
    EXPECT_TRUE(pwc.lookup(4, va + (1ULL << 30)));
    // Different L4 slot.
    EXPECT_FALSE(pwc.lookup(4, va + (1ULL << 39)));
    // Level 3 keyed by bits 47-30: not filled yet.
    EXPECT_FALSE(pwc.lookup(3, va));
}

TEST(Pwc, LevelsOutsideRangeIgnored)
{
    PageWalkCache pwc(2, 4, 32);
    pwc.fill(1, 0x1000); // PTE level is not cached natively
    EXPECT_FALSE(pwc.lookup(1, 0x1000));
}

TEST(Pwc, InvalidateRangeDropsTheFilledPrefixAtEveryLevel)
{
    // Fill each level's entry for va and for the entries on either
    // side of it; a 4KB range at va lies under exactly one per level.
    PageWalkCache pwc(1, 4, 32);
    const Addr va = 0x7123'4567'8000ULL;
    for (int l = 1; l <= 4; ++l) {
        const Addr span = Addr{1} << (12 + 9 * (l - 1));
        pwc.fill(l, va - span);
        pwc.fill(l, va);
        pwc.fill(l, va + span);
    }
    EXPECT_EQ(pwc.invalidateRange(va + 0x10, 0x1000 - 0x10), 4u);
    for (int l = 1; l <= 4; ++l) {
        SCOPED_TRACE("level " + std::to_string(l));
        const Addr span = Addr{1} << (12 + 9 * (l - 1));
        EXPECT_FALSE(pwc.lookup(l, va));
        EXPECT_TRUE(pwc.lookup(l, va - span));
        EXPECT_TRUE(pwc.lookup(l, va + span));
    }
}

// ----------------------------------------------------------- NTLB / STC

TEST(Ntlb, CachesGpaPageTranslations)
{
    NestedTlb ntlb(4);
    EXPECT_EQ(ntlb.lookup(0x1234), nullptr);
    ntlb.fill(0x1234, 0xABC000);
    ASSERT_NE(ntlb.lookup(0x1FFF), nullptr); // same 4KB page
    EXPECT_EQ(*ntlb.lookup(0x1FFF), 0xABC000u);
    EXPECT_EQ(ntlb.lookup(0x2000), nullptr); // next page
}

TEST(Stc, TenEntriesLru)
{
    ShortcutTranslationCache stc; // default 10 entries
    EXPECT_EQ(stc.capacity(), 10u);
    for (Addr gpa = 0; gpa < 12 * 4096; gpa += 4096)
        stc.fill(gpa, gpa + 0x100000);
    // The two oldest fell out.
    EXPECT_EQ(stc.lookup(0x0), nullptr);
    EXPECT_NE(stc.lookup(11 * 4096), nullptr);
}

TEST(Ntlb, InvalidateRangeDropsTheFilledGpaPage)
{
    NestedTlb ntlb(24);
    const Addr gpa = 0x8'1234'5000ULL;
    ntlb.fill(gpa - 0x1000, 0xA000);
    ntlb.fill(gpa + 0x234, 0xB000);
    ntlb.fill(gpa + 0x1000, 0xC000);
    // One byte at the page's end overlaps it and nothing else.
    EXPECT_EQ(ntlb.invalidateRange(gpa + 0xFFF, 1), 1u);
    EXPECT_EQ(ntlb.lookup(gpa), nullptr);
    ASSERT_NE(ntlb.lookup(gpa - 1), nullptr);
    EXPECT_EQ(*ntlb.lookup(gpa - 1), 0xA000u);
    ASSERT_NE(ntlb.lookup(gpa + 0x1000), nullptr);
    EXPECT_EQ(*ntlb.lookup(gpa + 0x1000), 0xC000u);
}

// ------------------------------------------------------------------ CWC

TEST(Cwc, PerLevelCapacities)
{
    CuckooWalkCache cwc({0, 16, 2});
    EXPECT_FALSE(cwc.caches(PageSize::Page4K));
    EXPECT_TRUE(cwc.caches(PageSize::Page2M));
    EXPECT_TRUE(cwc.caches(PageSize::Page1G));
    // Lookups on an uncached level always miss (and count).
    EXPECT_FALSE(cwc.lookup(PageSize::Page4K, 1));
    EXPECT_EQ(cwc.stats(PageSize::Page4K).misses(), 1u);
}

TEST(Cwc, FillThenHit)
{
    CuckooWalkCache cwc({4, 16, 2});
    EXPECT_FALSE(cwc.lookup(PageSize::Page2M, 7));
    cwc.fill(PageSize::Page2M, 7);
    EXPECT_TRUE(cwc.lookup(PageSize::Page2M, 7));
    // Levels are separate: the PUD level never saw key 7.
    EXPECT_FALSE(cwc.lookup(PageSize::Page1G, 7));
    EXPECT_EQ(cwc.stats(PageSize::Page2M).hits(), 1u);
    EXPECT_EQ(cwc.stats(PageSize::Page2M).misses(), 1u);
    EXPECT_EQ(cwc.stats(PageSize::Page1G).misses(), 1u);
    cwc.resetStats();
    EXPECT_EQ(cwc.stats(PageSize::Page2M).accesses(), 0u);
}

TEST(Cwc, InvalidateRangeDropsTheCwtEntryKeyAtEveryLevel)
{
    // Fill through CuckooWalkTable::entryKey, the key a walk fills
    // the CWC with: the entry covering va and its two neighbours. A
    // page-sized range at va must drop exactly that entry per level.
    BumpAllocator alloc;
    CuckooWalkCache cwc({8, 8, 8});
    const Addr va = 0x5A5A'5A5A'5000ULL;
    for (const PageSize level : all_page_sizes) {
        const CuckooWalkTable cwt(alloc, level);
        const std::uint64_t key = cwt.entryKey(va);
        cwc.fill(level, key - 1);
        cwc.fill(level, key);
        cwc.fill(level, key + 1);
    }
    EXPECT_EQ(cwc.invalidateRange(va, 0x1000), 3u);
    for (const PageSize level : all_page_sizes) {
        SCOPED_TRACE("level " + std::to_string(static_cast<int>(level)));
        const CuckooWalkTable cwt(alloc, level);
        const std::uint64_t key = cwt.entryKey(va);
        EXPECT_FALSE(cwc.lookup(level, key));
        EXPECT_TRUE(cwc.lookup(level, key - 1));
        EXPECT_TRUE(cwc.lookup(level, key + 1));
    }
}

// ------------------------------------------------- Adaptive controller

TEST(Adaptive, StartsEnabled)
{
    AdaptiveCwcController ctl(100);
    EXPECT_TRUE(ctl.pteCachingEnabled());
}

TEST(Adaptive, DisablesOnLowPteHitRate)
{
    AdaptiveCwcController ctl(100, 0.5, 0.85);
    // A full window of PTE misses.
    for (Cycles t = 0; t <= 200; t += 10)
        ctl.record(t, PageSize::Page4K, false);
    EXPECT_FALSE(ctl.pteCachingEnabled());
    EXPECT_GE(ctl.transitions(), 1u);
}

TEST(Adaptive, ReenablesOnHighPmdHitRate)
{
    AdaptiveCwcController ctl(100, 0.5, 0.85);
    for (Cycles t = 0; t <= 200; t += 10)
        ctl.record(t, PageSize::Page4K, false);
    ASSERT_FALSE(ctl.pteCachingEnabled());
    for (Cycles t = 300; t <= 600; t += 10)
        ctl.record(t, PageSize::Page2M, true);
    EXPECT_TRUE(ctl.pteCachingEnabled());
    EXPECT_GE(ctl.transitions(), 2u);
}

TEST(Adaptive, StaysEnabledOnGoodPteRate)
{
    AdaptiveCwcController ctl(100, 0.5, 0.85);
    for (Cycles t = 0; t <= 1000; t += 10)
        ctl.record(t, PageSize::Page4K, (t % 30) != 0); // ~93% hits
    EXPECT_TRUE(ctl.pteCachingEnabled());
    EXPECT_EQ(ctl.transitions(), 0u);
}

// -------------------------------------------------------------- POM-TLB

TEST(PomTlb, InstallLookup)
{
    BumpAllocator alloc;
    PomTlb pom(alloc, 1024, 4);
    EXPECT_FALSE(pom.lookup(0x1000).hit);
    pom.install(0x1000, {0xA000, PageSize::Page4K, true});
    const auto r = pom.lookup(0x1234);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.translation.pa, 0xA000u);
    EXPECT_NE(r.entry_addr, invalid_addr);
}

TEST(PomTlb, HugeEntryCoversWholePage)
{
    BumpAllocator alloc;
    PomTlb pom(alloc, 1024, 4);
    pom.install(0x4000'0000, {0x1'0000'0000, PageSize::Page2M, true});
    // Any offset within the 2MB page hits the single entry.
    EXPECT_TRUE(pom.lookup(0x4000'0000 + 0x12345).hit);
    EXPECT_FALSE(pom.lookup(0x4020'0000).hit);
}

TEST(PomTlb, EntryAddressesPinned)
{
    // The set a probe fetches, before and after an install, for 4KB
    // and 2MB entries: the addresses the 1024-set array gave when its
    // entries were {vpn, translation, lru, valid} records, so the key
    // layout cannot move a probed address. A miss reads the 4KB key's
    // set; a hit reads the set of the size that hit.
    struct Pin
    {
        Addr va;
        PageSize size;
        Addr miss_addr;
        Addr hit_addr;
    };
    const Pin pins[] = {
        {0x1000, PageSize::Page4K, 0x1000'2000, 0x1000'2000},
        {0x10'0000'3000ULL, PageSize::Page4K, 0x1000'66C0, 0x1000'66C0},
        {0x7FFF'1234'5000ULL, PageSize::Page4K, 0x1000'0480, 0x1000'0480},
        {0x4000'0000ULL, PageSize::Page2M, 0x1000'9980, 0x1000'B180},
        {0x10'0020'0000ULL, PageSize::Page2M, 0x1000'08C0, 0x1000'6580},
    };
    BumpAllocator alloc;
    PomTlb pom(alloc, 1024, 4);
    for (const Pin &p : pins) {
        SCOPED_TRACE(::testing::Message() << std::hex << p.va);
        EXPECT_EQ(pom.lookup(p.va).entry_addr, p.miss_addr);
        pom.install(p.va, {0xA000'0000ULL, p.size, true});
        const auto r = pom.lookup(p.va);
        EXPECT_TRUE(r.hit);
        EXPECT_EQ(r.entry_addr, p.hit_addr);
    }
}

TEST(PomTlb, DroppingOneEntryOfAFullSetKeepsTheOthers)
{
    // Four 4KB pages whose keys hash to one set of a 64-set, 4-way
    // POM-TLB (the set at 0x10000e40).
    BumpAllocator alloc;
    PomTlb pom(alloc, 64, 4);
    const Addr vas[] = {0x10'0000'1000ULL, 0x10'0000'C000ULL,
                        0x10'0001'5000ULL, 0x10'0002'5000ULL};
    for (const Addr va : vas) {
        EXPECT_EQ(pom.lookup(va).entry_addr, 0x1000'0E40u);
        pom.install(va, {va + 0x1'0000'0000ULL, PageSize::Page4K, true});
    }
    for (const Addr va : vas)
        EXPECT_TRUE(pom.lookup(va).hit);

    EXPECT_EQ(pom.invalidateRange(vas[1], 0x1000), 1u);
    EXPECT_FALSE(pom.lookup(vas[1]).hit);
    for (const Addr va : {vas[0], vas[2], vas[3]}) {
        const auto r = pom.lookup(va);
        EXPECT_TRUE(r.hit);
        EXPECT_EQ(r.translation.pa, va + 0x1'0000'0000ULL);
    }
}

TEST(PomTlb, StatsAndBytes)
{
    BumpAllocator alloc;
    PomTlb pom(alloc, 1024, 4);
    pom.lookup(0x0);
    pom.install(0x0, {0x1000, PageSize::Page4K, true});
    pom.lookup(0x0);
    EXPECT_EQ(pom.stats().hits(), 1u);
    EXPECT_EQ(pom.stats().misses(), 1u);
    EXPECT_EQ(pom.structureBytes(), 1024u * 4 * 16);
}

} // namespace necpt
