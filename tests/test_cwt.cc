/** @file Unit tests for Cuckoo Walk Tables. */

#include <gtest/gtest.h>

#include "pt/cwt.hh"
#include "pt/ecpt.hh"
#include "tests/test_util.hh"

namespace necpt
{

TEST(Cwt, SectionGranularities)
{
    BumpAllocator alloc;
    CuckooWalkTable pte(alloc, PageSize::Page4K);
    CuckooWalkTable pmd(alloc, PageSize::Page2M);
    CuckooWalkTable pud(alloc, PageSize::Page1G);
    EXPECT_EQ(pte.sectionShift(), 15); // 32KB: one PTE-ECPT block
    EXPECT_EQ(pmd.sectionShift(), 21); // 2MB
    EXPECT_EQ(pud.sectionShift(), 30); // 1GB
}

TEST(Cwt, PresentRoundTrip)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    EXPECT_FALSE(cwt.query(0x4000'0000).has_value());
    cwt.setPresent(0x4000'0000, 2);
    const auto d = cwt.query(0x4000'0000);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->present);
    EXPECT_EQ(d->way, 2);
    EXPECT_FALSE(d->hasSmaller());
}

TEST(Cwt, SectionsIndependent)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    const Addr base = 0x8000'0000;
    cwt.setPresent(base, 1);
    // The adjacent 2MB section is untouched but covered by the same
    // entry -> present=false descriptor, not nullopt.
    const auto other = cwt.query(base + (2ULL << 20));
    ASSERT_TRUE(other.has_value());
    EXPECT_FALSE(other->present);
    // A section in a different (untouched) chunk: no entry at all.
    EXPECT_FALSE(cwt.query(base + (1ULL << 36)).has_value());
}

TEST(Cwt, SmallerSizeBitsTracked)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page1G);
    cwt.setHasSmaller(0x0, PageSize::Page2M);
    auto d = cwt.query(0x0);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->present);
    EXPECT_TRUE(d->smaller_2m);
    EXPECT_FALSE(d->smaller_4k);
    // Uniformly-2MB regions stay distinguishable until a 4KB mapping
    // lands in the section.
    cwt.setHasSmaller(0x0, PageSize::Page4K);
    d = cwt.query(0x0);
    EXPECT_TRUE(d->smaller_2m);
    EXPECT_TRUE(d->smaller_4k);
    EXPECT_TRUE(d->hasSmaller());
}

TEST(Cwt, PresentExcludesSmaller)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    cwt.setPresent(0x0, 1);
    const auto d = cwt.query(0x0);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->present);
    EXPECT_FALSE(d->hasSmaller());
}

TEST(Cwt, WayUpdateOverwrites)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    cwt.setPresent(0x0, 0);
    cwt.setPresent(0x0, 2);
    EXPECT_EQ(cwt.query(0x0)->way, 2);
}

TEST(Cwt, EntryKeyCoversAllSections)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    const Addr base = 0x4'0000'0000; // entry-aligned (256MB for PMD)
    const int n = CuckooWalkTable::sections_per_entry;
    for (int s = 0; s < n; ++s)
        EXPECT_EQ(cwt.entryKey(base + (static_cast<Addr>(s) << 21)),
                  cwt.entryKey(base));
    EXPECT_NE(cwt.entryKey(base + (static_cast<Addr>(n) << 21)),
              cwt.entryKey(base));
}

TEST(Cwt, AllSectionsIndependentlyStored)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    const Addr base = 0x8'0000'0000;
    const int n = CuckooWalkTable::sections_per_entry;
    for (int s = 0; s < n; ++s)
        cwt.setPresent(base + (static_cast<Addr>(s) << 21), s % 4);
    for (int s = 0; s < n; ++s) {
        const auto d = cwt.query(base + (static_cast<Addr>(s) << 21));
        ASSERT_TRUE(d.has_value());
        EXPECT_TRUE(d->present);
        EXPECT_EQ(d->way, s % 4);
    }
}

TEST(Cwt, EntryProbeAddrsFetchDescriptorLine)
{
    BumpAllocator alloc(0x100000);
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    cwt.setPresent(0x0, 0);
    std::vector<Addr> probes;
    cwt.entryProbeAddrs(0x0, probes);
    ASSERT_EQ(probes.size(), 1u); // one descriptor line per refill
    EXPECT_GE(probes[0], 0x100000u);
    // Sections 128 nibbles apart land on different lines.
    std::vector<Addr> far;
    cwt.setPresent(300ULL << 21, 1);
    cwt.entryProbeAddrs(300ULL << 21, far);
    ASSERT_EQ(far.size(), 1u);
    EXPECT_NE(far[0], probes[0]);
}

TEST(Cwt, NeighboringSectionsPackIntoNibbles)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page2M);
    cwt.setPresent(0x0, 3);
    cwt.setHasSmaller(0x20'0000, PageSize::Page4K);
    const auto d0 = cwt.query(0x0);
    ASSERT_TRUE(d0.has_value());
    EXPECT_TRUE(d0->present);
    EXPECT_EQ(d0->way, 3);
    const auto d1 = cwt.query(0x20'0000);
    ASSERT_TRUE(d1.has_value());
    EXPECT_TRUE(d1->smaller_4k);
    EXPECT_FALSE(d1->present);
    // A far section in the same chunk decodes independently.
    cwt.setPresent(40ULL << 21, 2);
    const auto d40 = cwt.query(40ULL << 21);
    EXPECT_TRUE(d40->present);
    EXPECT_EQ(d40->way, 2);
}

TEST(Cwt, StructureBytesGrowPerChunk)
{
    BumpAllocator alloc;
    CuckooWalkTable cwt(alloc, PageSize::Page4K);
    EXPECT_EQ(cwt.structureBytes(), 0u);
    cwt.setPresent(0x0, 0);
    EXPECT_EQ(cwt.structureBytes(), CuckooWalkTable::chunk_bytes);
    // Same chunk: no growth.
    cwt.setPresent(0x8000, 1);
    EXPECT_EQ(cwt.structureBytes(), CuckooWalkTable::chunk_bytes);
    // A section in another chunk materializes a new one.
    cwt.setPresent(1ULL << 40, 2);
    EXPECT_EQ(cwt.structureBytes(), 2 * CuckooWalkTable::chunk_bytes);
}

/** Map, unmap and remap 4KB pages of one 2MB section: the memoised
 *  per-section count entry is erased when the last page goes and must
 *  be recreated, not reused, when pages come back. */
TEST(Cwt, SmallerCountSurvivesEraseAndRecreate)
{
    BumpAllocator alloc;
    EcptConfig cfg;
    cfg.initial_slots = {256, 128, 64};
    EcptPageTable pt(alloc, cfg);
    const CuckooWalkTable &pmd = *pt.cwtOf(PageSize::Page2M);
    const Addr section = 0x4000'0000;
    const Addr other = section + (2ULL << 20);
    auto smaller4k = [&](Addr va) {
        const auto d = pmd.query(va);
        return d && d->smaller_4k;
    };

    for (int round = 0; round < 3; ++round) {
        for (Addr off = 0; off < 3 * 4096; off += 4096)
            pt.map(section + off, 0x10'0000 + off, PageSize::Page4K);
        // A neighbouring section moves the memo away and back.
        pt.map(other, 0x20'0000, PageSize::Page4K);
        EXPECT_TRUE(smaller4k(section)) << "round " << round;
        for (Addr off = 0; off < 3 * 4096; off += 4096) {
            EXPECT_TRUE(smaller4k(section)) << "round " << round;
            pt.unmap(section + off, PageSize::Page4K);
        }
        EXPECT_FALSE(smaller4k(section)) << "round " << round;
        EXPECT_TRUE(smaller4k(other)) << "round " << round;
        pt.unmap(other, PageSize::Page4K);
        EXPECT_FALSE(smaller4k(other)) << "round " << round;
        pt.auditInvariants("test");
    }
}

} // namespace necpt
