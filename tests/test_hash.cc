/** @file Unit tests for the CRC hash functions (common/hash.hh). */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"

namespace necpt
{

TEST(Crc64, DeterministicAndSpread)
{
    EXPECT_EQ(crc64(0x1234), crc64(0x1234));
    EXPECT_NE(crc64(0x1234), crc64(0x1235));
    // Single-bit input changes flip many output bits (avalanche-ish).
    int differing = std::popcount(crc64(0x1000) ^ crc64(0x1001));
    EXPECT_GT(differing, 16);
}

TEST(HashFunction, SeedIndependence)
{
    HashFunction f1(1), f2(2);
    int collisions = 0;
    for (std::uint64_t k = 0; k < 4096; ++k)
        if ((f1(k) & 0xFFF) == (f2(k) & 0xFFF))
            ++collisions;
    // Two independent functions should collide on a 12-bit reduction
    // at roughly 1/4096 per key; allow generous slack.
    EXPECT_LT(collisions, 32);
}

TEST(HashFunction, Uniformity)
{
    HashFunction f(42);
    constexpr int buckets = 64;
    std::vector<int> histogram(buckets, 0);
    constexpr int keys = 64 * 1000;
    for (std::uint64_t k = 0; k < keys; ++k)
        ++histogram[f(k) % buckets];
    for (int count : histogram) {
        EXPECT_GT(count, 700);
        EXPECT_LT(count, 1300);
    }
}

namespace
{

/** @p n functions seeded from one splitmix64 stream, the way an
 *  elastic cuckoo table seeds its ways. */
template <std::size_t n>
std::array<HashFunction, n>
seededWays(std::uint64_t seed)
{
    std::array<HashFunction, n> ways;
    for (HashFunction &fn : ways)
        fn = HashFunction(splitmix64(seed));
    return ways;
}

} // namespace

TEST(HashFamily, DistinctMembers)
{
    const auto ways = seededWays<9>(0xFEED);
    std::uint64_t out[9];
    hashWays(ways.data(), 9, 0xCAFE, out);
    std::set<std::uint64_t> outputs(out, out + 9);
    // All nine ways hash the same key differently, and the one-pass
    // hash of each way is that way's function.
    EXPECT_EQ(outputs.size(), 9u);
    for (int w = 0; w < 9; ++w)
        EXPECT_EQ(out[w], ways[w](0xCAFE));
}

TEST(HashFamily, ReproducibleAcrossInstances)
{
    const auto a = seededWays<3>(7), b = seededWays<3>(7);
    for (std::uint64_t k = 0; k < 100; ++k) {
        std::uint64_t out_a[3], out_b[3];
        hashWays(a.data(), 3, k, out_a);
        hashWays(b.data(), 3, k, out_b);
        for (int w = 0; w < 3; ++w)
            EXPECT_EQ(out_a[w], out_b[w]);
    }
}

TEST(HashFunction, LatencyConstant)
{
    EXPECT_EQ(HashFunction::latency, 2u);
}

} // namespace necpt
