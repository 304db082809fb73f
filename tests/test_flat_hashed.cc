/** @file Unit tests for the flat and classic hashed page tables. */

#include <gtest/gtest.h>

#include <algorithm>

#include "pt/flat.hh"
#include "pt/hashed.hh"
#include "tests/test_util.hh"

namespace necpt
{

TEST(Flat, MapLookup4K)
{
    BumpAllocator alloc;
    FlatPageTable flat(alloc, 1ULL << 30);
    flat.map(0x1000, 0xA000, PageSize::Page4K);
    const auto t = flat.lookup(0x1FFF);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.apply(0x1FFF), 0xAFFFu);
    EXPECT_FALSE(flat.lookup(0x9000).valid);
}

TEST(Flat, HugePagesResolveFromBase)
{
    BumpAllocator alloc;
    FlatPageTable flat(alloc, 4ULL << 30);
    flat.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    const auto t = flat.lookup(0x4010'1234);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.size, PageSize::Page2M);
}

TEST(Flat, EntryAddrLinearIn4KFrames)
{
    BumpAllocator alloc(0x7000'0000);
    FlatPageTable flat(alloc, 1ULL << 30);
    const Addr base = flat.entryAddr(0);
    EXPECT_EQ(flat.entryAddr(0x1000), base + 8);
    EXPECT_EQ(flat.entryAddr(0x2000), base + 16);
}

TEST(Flat, StructureBytesProportionalToCoverage)
{
    BumpAllocator alloc;
    FlatPageTable flat(alloc, 1ULL << 30);
    // 1GB / 4KB * 8B = 2MB.
    EXPECT_EQ(flat.structureBytes(), 2ULL << 20);
}

TEST(Flat, UnmapRemoves)
{
    BumpAllocator alloc;
    FlatPageTable flat(alloc, 1ULL << 30);
    flat.map(0x1000, 0xA000, PageSize::Page4K);
    flat.unmap(0x1000, PageSize::Page4K);
    EXPECT_FALSE(flat.lookup(0x1000).valid);
}

TEST(Hashed, MapLookup)
{
    BumpAllocator alloc;
    HashedPageTable hpt(alloc, 256);
    EXPECT_TRUE(hpt.map(0x1000, 0xA000));
    const auto t = hpt.lookup(0x1234);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pa, 0xA000u);
    EXPECT_FALSE(hpt.lookup(0x5000).valid);
}

TEST(Hashed, CollisionChainsProbeMultipleSlots)
{
    BumpAllocator alloc;
    HashedPageTable hpt(alloc, 64);
    // Fill half the table; some lookups will need >1 probe — the
    // Section 2.2 HPT shortcoming.
    for (Addr va = 0; va < 32 * 4096; va += 4096)
        EXPECT_TRUE(hpt.map(va, va + 0x10'0000));
    std::uint64_t max_probes = 0;
    for (Addr va = 0; va < 32 * 4096; va += 4096) {
        std::vector<Addr> probes;
        ASSERT_TRUE(hpt.lookup(va, &probes).valid);
        max_probes = std::max<std::uint64_t>(max_probes, probes.size());
    }
    EXPECT_GE(max_probes, 2u);
    EXPECT_GT(hpt.avgProbes(), 1.0);
}

TEST(Hashed, TombstoneKeepsChainsIntact)
{
    BumpAllocator alloc;
    HashedPageTable hpt(alloc, 64);
    for (Addr va = 0; va < 20 * 4096; va += 4096)
        hpt.map(va, va);
    hpt.unmap(0, PageSize::Page4K);
    // Everything else still resolves despite the tombstone.
    for (Addr va = 4096; va < 20 * 4096; va += 4096)
        EXPECT_TRUE(hpt.lookup(va).valid) << va;
    EXPECT_FALSE(hpt.lookup(0).valid);
}

TEST(Hashed, FullTableRejectsInsert)
{
    BumpAllocator alloc;
    HashedPageTable hpt(alloc, 8);
    for (Addr va = 0; va < 8 * 4096; va += 4096)
        EXPECT_TRUE(hpt.map(va, va));
    EXPECT_FALSE(hpt.map(0x100000, 0x100000));
    EXPECT_DOUBLE_EQ(hpt.loadFactor(), 1.0);
}

TEST(Hashed, Remap)
{
    BumpAllocator alloc;
    HashedPageTable hpt(alloc, 64);
    hpt.map(0x1000, 0xA000);
    hpt.map(0x1000, 0xB000);
    EXPECT_EQ(hpt.lookup(0x1000).pa, 0xB000u);
    EXPECT_EQ(hpt.occupancy(), 1u);
}

} // namespace necpt
