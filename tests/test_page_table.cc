/**
 * @file
 * The PageTable contract every organization keeps: the same map ->
 * lookup -> unmap -> lookup sequence, run through PageTable & on the
 * radix, ECPT, flat and hashed tables, whose interface accounting
 * must agree with each one's own accessors; and a block's mappedMask
 * must agree with a lookup of each of its pages.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pt/ecpt.hh"
#include "pt/flat.hh"
#include "pt/hashed.hh"
#include "pt/radix.hh"
#include "tests/test_util.hh"

namespace necpt
{
namespace
{

constexpr std::uint64_t flat_covered_bytes = 1ULL << 30;
constexpr std::uint64_t hpt_slots = 1024;

/** A small empty table of organization @p T. */
template <class T>
std::unique_ptr<T>
makeTable(RegionAllocator &alloc)
{
    if constexpr (T::kind == PtKind::Ecpt) {
        EcptConfig cfg;
        cfg.initial_slots = {1024, 1024, 512};
        return std::make_unique<T>(alloc, cfg);
    } else if constexpr (T::kind == PtKind::Flat) {
        return std::make_unique<T>(alloc, flat_covered_bytes);
    } else if constexpr (T::kind == PtKind::Hpt) {
        return std::make_unique<T>(alloc, hpt_slots);
    } else {
        return std::make_unique<T>(alloc);
    }
}

/// @name Each organization's own view of its mappings and footprint
/// @{
std::uint64_t
ownMappings(const RadixPageTable &t)
{
    return t.mappingCount();
}

std::uint64_t
ownMappings(const EcptPageTable &t)
{
    std::uint64_t count = 0;
    for (PageSize size : all_page_sizes)
        count += t.mappingCount(size);
    return count;
}

std::uint64_t
ownMappings(const FlatPageTable &t)
{
    return t.mappingCount();
}

std::uint64_t
ownMappings(const HashedPageTable &t)
{
    return t.occupancy();
}

std::uint64_t
ownBytes(const RadixPageTable &t)
{
    return t.nodeCount() * 4096;
}

std::uint64_t
ownBytes(const EcptPageTable &t)
{
    std::uint64_t bytes = t.cwtBytes();
    for (PageSize size : all_page_sizes)
        bytes += t.tableOf(size).structureBytes();
    return bytes;
}

std::uint64_t
ownBytes(const FlatPageTable &)
{
    return (flat_covered_bytes >> 12) * pte_bytes; // a PTE per 4KB frame
}

std::uint64_t
ownBytes(const HashedPageTable &)
{
    return hpt_slots * 16; // tag + PTE per slot
}
/// @}

/** The page sizes @p T can map: one shared HPT holds 4KB pages only
 *  (Section 2.2); the others hold 2MB pages too. */
template <class T>
std::vector<PageSize>
sizesOf()
{
    if (T::kind == PtKind::Hpt)
        return {PageSize::Page4K};
    return {PageSize::Page4K, PageSize::Page2M};
}

template <class T>
class PageTableContract : public ::testing::Test
{};

using Organizations = ::testing::Types<RadixPageTable, EcptPageTable,
                                       FlatPageTable, HashedPageTable>;

/** Lists each case by its organization. */
struct OrganizationName
{
    template <class T>
    static std::string
    GetName(int)
    {
        switch (T::kind) {
          case PtKind::Radix: return "Radix";
          case PtKind::Ecpt: return "Ecpt";
          case PtKind::Flat: return "Flat";
          case PtKind::Hpt: return "Hpt";
        }
        return "?";
    }
};

TYPED_TEST_SUITE(PageTableContract, Organizations, OrganizationName);

TYPED_TEST(PageTableContract, MapLookupUnmapThroughTheInterface)
{
    for (const PageSize size : sizesOf<TypeParam>()) {
        SCOPED_TRACE(pageSizeName(size));
        BumpAllocator alloc;
        const std::unique_ptr<TypeParam> table =
            makeTable<TypeParam>(alloc);
        PageTable &pt = *table;

        const Addr va = 0x3000'0000;
        const Addr pa = 0x8000'0000;
        const Addr offset = pageBytes(size) - 8;
        EXPECT_FALSE(pt.lookup(va).valid);

        pt.map(va, pa, size);
        const Translation t = pt.lookup(va + offset);
        ASSERT_TRUE(t.valid);
        EXPECT_EQ(t.size, size);
        EXPECT_EQ(t.apply(va + offset), pa + offset);
        EXPECT_FALSE(pt.lookup(va + pageBytes(size)).valid);
        EXPECT_EQ(pt.mappingCount(), 1u);
        EXPECT_EQ(pt.mappingCount(), ownMappings(*table));
        EXPECT_EQ(pt.structureBytes(), ownBytes(*table));

        pt.unmap(va, size);
        EXPECT_FALSE(pt.lookup(va + offset).valid);
        EXPECT_EQ(pt.mappingCount(), 0u);
        EXPECT_EQ(pt.mappingCount(), ownMappings(*table));
        EXPECT_EQ(pt.structureBytes(), ownBytes(*table));
    }
}

/** Every (first page, page count) query inside the block at @p block
 *  agrees with one lookup per page, and sets no bit past the count. */
void
expectMaskMatchesLookup(const PageTable &pt, Addr block)
{
    const Addr page = pageBytes(PageSize::Page4K);
    for (int first = 0; first < PageTable::block_pages; ++first) {
        for (int pages = 1; first + pages <= PageTable::block_pages;
             ++pages) {
            const Addr va = block + static_cast<Addr>(first) * page;
            const std::uint32_t mask = pt.mappedMask(va, pages);
            EXPECT_EQ(mask >> pages, 0u) << std::hex << va;
            for (int i = 0; i < pages; ++i)
                EXPECT_EQ((mask >> i & 1) != 0,
                          pt.lookup(va + static_cast<Addr>(i) * page).valid)
                    << std::hex << va << " page " << i;
        }
    }
}

/** Map the pages of @p block whose bit is set in @p pattern, one
 *  4KB frame each from @p pa. */
void
mapPattern(PageTable &pt, Addr block, unsigned pattern, Addr pa)
{
    const Addr page = pageBytes(PageSize::Page4K);
    for (int i = 0; i < PageTable::block_pages; ++i)
        if (pattern >> i & 1)
            pt.map(block + static_cast<Addr>(i) * page,
                   pa + static_cast<Addr>(i) * page, PageSize::Page4K);
}

constexpr unsigned partial_pattern = 0b1000'1101;

TYPED_TEST(PageTableContract, MappedMaskMatchesLookup)
{
    BumpAllocator alloc;
    const std::unique_ptr<TypeParam> table = makeTable<TypeParam>(alloc);
    PageTable &pt = *table;
    const Addr block_bytes =
        PageTable::block_pages * pageBytes(PageSize::Page4K);

    // 4KB blocks partly, fully and not at all mapped.
    const Addr small = 0x3000'0000;
    std::vector<Addr> blocks;
    const unsigned patterns[] = {partial_pattern, 0xFF, 0, 0b0010'0000,
                                 0b0111'1110};
    for (unsigned pattern : patterns) {
        const Addr block = small + blocks.size() * block_bytes;
        mapPattern(pt, block, pattern, 0x8000'0000 + blocks.size() * 0x10000);
        blocks.push_back(block);
    }
    // Blocks inside a 2MB and a 1GB page, which one hashed table
    // cannot map (Section 2.2).
    if constexpr (TypeParam::kind != PtKind::Hpt) {
        const Addr huge = 0x3040'0000;
        pt.map(huge, 0x9000'0000, PageSize::Page2M);
        blocks.insert(blocks.end(),
                      {huge, huge + 5 * block_bytes,
                       huge + pageBytes(PageSize::Page2M) - block_bytes});
        const Addr giant = 0x8000'0000;
        pt.map(giant, 0x4000'0000, PageSize::Page1G);
        blocks.insert(blocks.end(),
                      {giant, giant + 0x1234 * block_bytes,
                       giant + pageBytes(PageSize::Page1G) - block_bytes});
    }
    for (const Addr block : blocks) {
        SCOPED_TRACE(::testing::Message() << std::hex << block);
        expectMaskMatchesLookup(pt, block);
    }

    // An ECPT mid-resize answers from both generations: fill a tiny
    // table until it starts growing, so most blocks still sit in the
    // old generation.
    if constexpr (TypeParam::kind == PtKind::Ecpt) {
        EcptConfig cfg;
        cfg.initial_slots = {16, 16, 16};
        EcptPageTable ecpt(alloc, cfg);
        auto &pte_table = ecpt.tableOf(PageSize::Page4K);
        const Addr page = pageBytes(PageSize::Page4K);
        for (Addr block = small; !pte_table.resizing(); block += block_bytes)
            for (int i = 0; i < PageTable::block_pages
                            && !pte_table.resizing();
                 ++i)
                if (partial_pattern >> i & 1)
                    ecpt.map(block + static_cast<Addr>(i) * page,
                             0x8000'0000 + block - small
                                 + static_cast<Addr>(i) * page,
                             PageSize::Page4K);
        std::vector<Addr> old_blocks, live_blocks;
        pte_table.forEach([&](std::uint64_t key, const PteBlock &, int,
                              bool in_old) {
            (in_old ? old_blocks : live_blocks)
                .push_back((key << 3) << pageShift(PageSize::Page4K));
        });
        ASSERT_FALSE(old_blocks.empty());
        old_blocks.push_back(small + 1000 * block_bytes); // never mapped
        for (const std::vector<Addr> *group : {&old_blocks, &live_blocks})
            for (const Addr block : *group) {
                SCOPED_TRACE(::testing::Message() << std::hex << block);
                expectMaskMatchesLookup(ecpt, block);
            }
    }
}

} // namespace
} // namespace necpt
