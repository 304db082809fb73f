/** @file Unit tests for the 4-level radix page table. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "pt/radix.hh"
#include "tests/test_util.hh"

namespace necpt
{

TEST(Radix, MapAndLookup4K)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    pt.map(0x7000'1000, 0xAAAA'0000, PageSize::Page4K);
    const Translation t = pt.lookup(0x7000'1234);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pa, 0xAAAA'0000u);
    EXPECT_EQ(t.size, PageSize::Page4K);
    EXPECT_EQ(t.apply(0x7000'1234), 0xAAAA'0234u);
}

TEST(Radix, UnmappedInvalid)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    EXPECT_FALSE(pt.lookup(0x1234'5678).valid);
}

TEST(Radix, WalkDepthPerPageSize)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    pt.map(0x0000'0000, 0x1'0000'0000, PageSize::Page4K);
    pt.map(0x4000'0000ULL + (2ULL << 21), 0x2'0020'0000,
           PageSize::Page2M);
    pt.map(0x80'0000'0000ULL, 0x3'4000'0000, PageSize::Page1G);

    RadixSteps steps;
    pt.walk(0x0000'0123, steps);
    EXPECT_EQ(steps.size(), 4u); // Figure 1: up to 4 references
    EXPECT_TRUE(steps.back().leaf);
    EXPECT_EQ(steps.back().level, 1);

    steps.clear();
    pt.walk(0x4000'0000ULL + (2ULL << 21) + 5, steps);
    EXPECT_EQ(steps.size(), 3u); // 2MB terminates at L2
    EXPECT_EQ(steps.back().level, 2);

    steps.clear();
    pt.walk(0x80'0000'0000ULL + 7, steps);
    EXPECT_EQ(steps.size(), 2u); // 1GB terminates at L3
    EXPECT_EQ(steps.back().level, 3);
}

TEST(Radix, StepAddressesLiveInAllocatedNodes)
{
    BumpAllocator alloc(0x5000'0000);
    RadixPageTable pt(alloc);
    pt.map(0x1000, 0x9000, PageSize::Page4K);
    RadixSteps steps;
    pt.walk(0x1000, steps);
    EXPECT_EQ(steps[0].entry_addr, pt.root() + radixIndex(0x1000, 4) * 8);
    for (const RadixStep &step : steps) {
        EXPECT_GE(step.entry_addr, 0x5000'0000u);
        EXPECT_LT(step.entry_addr, alloc.cursor);
    }
}

TEST(Radix, SharedIntermediateNodes)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    const auto nodes_before = pt.nodeCount();
    pt.map(0x2000, 0xB000, PageSize::Page4K); // same L1 table
    EXPECT_EQ(pt.nodeCount(), nodes_before);
    pt.map(0x4000'0000, 0xC000, PageSize::Page4K); // new subtree
    EXPECT_GT(pt.nodeCount(), nodes_before);
}

TEST(Radix, UnmapRemovesMapping)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    EXPECT_EQ(pt.mappingCount(), 1u);
    pt.unmap(0x1000, PageSize::Page4K);
    EXPECT_FALSE(pt.lookup(0x1000).valid);
    EXPECT_EQ(pt.mappingCount(), 0u);
}

TEST(Radix, StructureBytesGrowWithNodes)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    const auto initial = pt.structureBytes();
    EXPECT_EQ(initial, 4096u); // root only
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    EXPECT_EQ(pt.structureBytes(), 4096u * pt.nodeCount());
    EXPECT_EQ(pt.nodeCount(), 4u); // root + 3 intermediate
}

TEST(Radix, Remap)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    pt.map(0x1000, 0xB000, PageSize::Page4K);
    EXPECT_EQ(pt.lookup(0x1000).pa, 0xB000u);
    EXPECT_EQ(pt.mappingCount(), 1u);
}

TEST(Radix, FiveLevelTreeWalksOneExtraStep)
{
    BumpAllocator alloc;
    RadixPageTable pt4(alloc, 4);
    RadixPageTable pt5(alloc, 5);
    EXPECT_EQ(pt4.topLevel(), 4);
    EXPECT_EQ(pt5.topLevel(), 5);
    pt4.map(0x7000'1000, 0xA000, PageSize::Page4K);
    pt5.map(0x7000'1000, 0xA000, PageSize::Page4K);
    RadixSteps s4, s5;
    ASSERT_TRUE(pt4.walk(0x7000'1000, s4).valid);
    ASSERT_TRUE(pt5.walk(0x7000'1000, s5).valid);
    EXPECT_EQ(s4.size(), 4u);
    EXPECT_EQ(s5.size(), 5u); // Section 1: the Sunny Cove fifth level
    EXPECT_EQ(s5.front().level, 5);
    EXPECT_EQ(pt5.lookup(0x7000'1234).apply(0x7000'1234), 0xA234u);
}

TEST(Radix, FiveLevelDistinguishesHighVaBits)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc, 5);
    const Addr lo = 0x1000;
    const Addr hi = lo + (1ULL << 48); // differs only in L5 index
    pt.map(lo, 0xA000, PageSize::Page4K);
    pt.map(hi, 0xB000, PageSize::Page4K);
    EXPECT_EQ(pt.lookup(lo).pa, 0xA000u);
    EXPECT_EQ(pt.lookup(hi).pa, 0xB000u);
}

/** Property: many random 4K mappings all resolve correctly. */
TEST(Radix, RandomMappingsRoundTrip)
{
    BumpAllocator alloc;
    RadixPageTable pt(alloc);
    Rng rng(42);
    std::vector<std::pair<Addr, Addr>> mappings;
    for (int i = 0; i < 2000; ++i) {
        const Addr va = (rng.next() & mask(47)) & ~mask(12);
        const Addr pa = (rng.next() & mask(50)) & ~mask(12);
        pt.map(va, pa, PageSize::Page4K);
        mappings.emplace_back(va, pa);
    }
    for (auto [va, pa] : mappings) {
        const Translation t = pt.lookup(va + 5);
        ASSERT_TRUE(t.valid);
        // Later remaps of the same VA win; just check validity + size.
        EXPECT_EQ(t.size, PageSize::Page4K);
    }
}

} // namespace necpt
