/**
 * @file
 * The PageTable contract every organization keeps: the same map ->
 * lookup -> unmap -> lookup sequence, run through PageTable & on the
 * radix, ECPT, flat and hashed tables, whose interface accounting
 * must agree with each one's own accessors.
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
        cfg.cwt_initial_slots = {256, 256, 128};
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

} // namespace
} // namespace necpt
