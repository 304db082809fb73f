/** @file Unit tests for the set-associative cache model (mem/cache.hh). */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace necpt
{

namespace
{
CacheConfig
smallCache(std::uint64_t size = 4096, int assoc = 2)
{
    return {"test", size, assoc, 10, 4};
}
} // namespace

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, Requester::Core));
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1000, Requester::Core));
    // Same line, different byte.
    EXPECT_TRUE(cache.access(0x103F, Requester::Core));
    // Next line misses.
    EXPECT_FALSE(cache.access(0x1040, Requester::Core));
}

TEST(SetAssocCache, LruEviction)
{
    // 2-way, 4096B => 32 sets; lines mapping to the same set are
    // 32*64 = 2048 bytes apart.
    SetAssocCache cache(smallCache());
    const Addr a = 0x0000, b = a + 2048, c = a + 4096;
    cache.fill(a);
    cache.fill(b);
    EXPECT_TRUE(cache.access(a, Requester::Core)); // a now MRU
    cache.fill(c);                                  // evicts b (LRU)
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(SetAssocCache, PerRequesterStats)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, Requester::Core);   // miss
    cache.fill(0x0);
    cache.access(0x0, Requester::Core);   // hit
    cache.access(0x0, Requester::Mmu);    // hit
    cache.access(0x40, Requester::Mmu);   // miss
    EXPECT_EQ(cache.stats(Requester::Core).hits(), 1u);
    EXPECT_EQ(cache.stats(Requester::Core).misses(), 1u);
    EXPECT_EQ(cache.stats(Requester::Mmu).hits(), 1u);
    EXPECT_EQ(cache.stats(Requester::Mmu).misses(), 1u);
    cache.resetStats();
    EXPECT_EQ(cache.stats(Requester::Core).accesses(), 0u);
}

TEST(SetAssocCache, ContainsDoesNotTouchStats)
{
    SetAssocCache cache(smallCache());
    cache.fill(0x0);
    (void)cache.contains(0x0);
    (void)cache.contains(0x40);
    EXPECT_EQ(cache.stats(Requester::Core).accesses(), 0u);
}

TEST(SetAssocCache, FillIsIdempotent)
{
    SetAssocCache cache(smallCache(4096, 2));
    cache.fill(0x0);
    cache.fill(0x0);
    cache.fill(0x800); // same set
    // Both lines fit in the 2 ways: nothing was evicted by refilling.
    EXPECT_TRUE(cache.contains(0x0));
    EXPECT_TRUE(cache.contains(0x800));
}

/** Parameterized geometry sweep: capacity is always respected. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t, int>>
{};

TEST_P(CacheGeometry, CapacityRespected)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache cache(smallCache(size, assoc));
    const std::uint64_t lines = size / line_bytes;
    // Fill twice the capacity; at most `lines` can be resident.
    std::uint64_t resident = 0;
    for (std::uint64_t i = 0; i < lines * 2; ++i)
        cache.fill(i * line_bytes);
    for (std::uint64_t i = 0; i < lines * 2; ++i)
        resident += cache.contains(i * line_bytes);
    EXPECT_LE(resident, lines);
    EXPECT_GE(resident, lines / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(4096ULL, 1),
                      std::make_pair(4096ULL, 2),
                      std::make_pair(8192ULL, 4),
                      std::make_pair(32768ULL, 8),
                      std::make_pair(65536ULL, 16),
                      // 48 sets: a set count that is not a power of
                      // two indexes by modulo, like a 3-core L3.
                      std::make_pair(12288ULL, 4)));

} // namespace necpt
