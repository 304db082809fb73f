/** @file Unit tests for the ECPT walk planner (walk/plan.hh). */

#include <gtest/gtest.h>

#include <bit>

#include "mmu/cwc.hh"
#include "pt/ecpt.hh"
#include "tests/test_util.hh"
#include "walk/plan.hh"

namespace necpt
{

namespace
{

struct PlanFixture : public ::testing::Test
{
    PlanFixture()
        : pt(alloc, [] {
              EcptConfig cfg;
              cfg.initial_slots = {256, 256, 128};
              cfg.has_pte_cwt = true;
              return cfg;
          }())
    {}

    /** Warm the CWC with the entries covering @p va. */
    void
    warmCwc(CuckooWalkCache &cwc, Addr va)
    {
        for (auto level : all_page_sizes) {
            const CuckooWalkTable *cwt = pt.cwtOf(level);
            if (!cwt || !cwc.caches(level))
                continue;
            cwc.fill(level, cwt->entryKey(va));
        }
    }

    BumpAllocator alloc;
    EcptPageTable pt;
};

} // namespace

TEST_F(PlanFixture, ColdCwcGivesCompleteWalk)
{
    CuckooWalkCache cwc({16, 16, 2});
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    PlanOptions options;
    options.use_pte_info = true;
    const auto plan = planEcptWalk(pt, cwc, 0x1000, options);
    EXPECT_EQ(plan.kind, WalkKind::Complete);
    for (int s = 0; s < num_page_sizes; ++s)
        EXPECT_EQ(plan.way_mask[s], pt.allWays());
    EXPECT_TRUE(plan.cwc_missed[static_cast<int>(PageSize::Page1G)]);
}

TEST_F(PlanFixture, WarmCwcGivesDirectWalkFor2M)
{
    CuckooWalkCache cwc({16, 16, 2});
    pt.map(0x4000'0000, 0x1'0020'0000, PageSize::Page2M);
    warmCwc(cwc, 0x4000'0000);
    const auto plan = planEcptWalk(pt, cwc, 0x4000'0000, {});
    EXPECT_EQ(plan.kind, WalkKind::Direct);
    const int pmd = static_cast<int>(PageSize::Page2M);
    EXPECT_EQ(std::popcount(plan.way_mask[pmd]), 1);
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page1G)], 0u);
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page4K)], 0u);
}

TEST_F(PlanFixture, WarmCwcWithoutPteInfoGivesSizeWalk)
{
    CuckooWalkCache cwc({0, 16, 2}); // no PTE level (guest gCWC)
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    warmCwc(cwc, 0x1000);
    PlanOptions options;
    options.use_pte_info = false;
    const auto plan = planEcptWalk(pt, cwc, 0x1000, options);
    EXPECT_EQ(plan.kind, WalkKind::Size);
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page4K)],
              pt.allWays());
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page2M)], 0u);
}

TEST_F(PlanFixture, PteCwtHitGivesDirectWalkFor4K)
{
    CuckooWalkCache cwc({16, 16, 2});
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    warmCwc(cwc, 0x1000);
    PlanOptions options;
    options.use_pte_info = true;
    const auto plan = planEcptWalk(pt, cwc, 0x1000, options);
    EXPECT_EQ(plan.kind, WalkKind::Direct);
    EXPECT_EQ(std::popcount(
                  plan.way_mask[static_cast<int>(PageSize::Page4K)]),
              1);
}

TEST_F(PlanFixture, PudHitPmdMissGivesPartialWalkInMixedRegion)
{
    CuckooWalkCache cwc({0, 16, 2});
    // A mixed 1GB region: both 4KB and 2MB mappings, so the PUD
    // descriptor cannot pin the size and the missing PMD info forces
    // a two-table (Partial) probe.
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    pt.map(0x40'0000, 0xC0'0000, PageSize::Page2M);
    const CuckooWalkTable *pud = pt.cwtOf(PageSize::Page1G);
    cwc.fill(PageSize::Page1G, pud->entryKey(0x1000));
    const auto plan = planEcptWalk(pt, cwc, 0x1000, {});
    EXPECT_EQ(plan.kind, WalkKind::Partial);
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page1G)], 0u);
    EXPECT_NE(plan.way_mask[static_cast<int>(PageSize::Page2M)], 0u);
    EXPECT_NE(plan.way_mask[static_cast<int>(PageSize::Page4K)], 0u);
}

TEST_F(PlanFixture, UniformRegionPinsSizeFromPudAlone)
{
    CuckooWalkCache cwc({0, 16, 2});
    // A uniformly-4KB 1GB region: the PUD descriptor alone restricts
    // the probe set to the PTE table — a Size walk with no PMD-CWC
    // dependence (the mechanism behind the paper's cheap host walks).
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    const CuckooWalkTable *pud = pt.cwtOf(PageSize::Page1G);
    cwc.fill(PageSize::Page1G, pud->entryKey(0x1000));
    const auto plan = planEcptWalk(pt, cwc, 0x1000, {});
    EXPECT_EQ(plan.kind, WalkKind::Size);
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page2M)], 0u);
    EXPECT_EQ(plan.way_mask[static_cast<int>(PageSize::Page4K)],
              pt.allWays());
}

TEST_F(PlanFixture, OneGigPageDirect)
{
    CuckooWalkCache cwc({16, 16, 2});
    pt.map(0x40'0000'0000, 0x1'4000'0000, PageSize::Page1G);
    warmCwc(cwc, 0x40'0000'0000);
    const auto plan = planEcptWalk(pt, cwc, 0x40'1234'5678, {});
    EXPECT_EQ(plan.kind, WalkKind::Direct);
    EXPECT_EQ(std::popcount(
                  plan.way_mask[static_cast<int>(PageSize::Page1G)]),
              1);
}

TEST_F(PlanFixture, RefillsFillCwcAndReportTraffic)
{
    CuckooWalkCache cwc({16, 16, 2});
    pt.map(0x1000, 0xA000, PageSize::Page4K);
    PlanOptions options;
    options.use_pte_info = true;
    const auto plan = planEcptWalk(pt, cwc, 0x1000, options);
    std::vector<Addr> fetches;
    collectCwcRefills(pt, cwc, 0x1000, plan, options, fetches);
    // One descriptor-line fetch per missed level.
    EXPECT_EQ(fetches.size(), 3u);
    // Now the CWC is warm: next plan is pruned.
    const auto warm = planEcptWalk(pt, cwc, 0x1000, options);
    EXPECT_EQ(warm.kind, WalkKind::Direct);
}

TEST_F(PlanFixture, ClassifyBoundaries)
{
    EcptProbePlan plan;
    plan.way_mask = {1, 0, 0};
    EXPECT_EQ(classifyPlan(plan, 3), WalkKind::Direct);
    plan.way_mask = {0b111, 0, 0};
    EXPECT_EQ(classifyPlan(plan, 3), WalkKind::Size);
    plan.way_mask = {0b111, 0b111, 0};
    EXPECT_EQ(classifyPlan(plan, 3), WalkKind::Partial);
    plan.way_mask = {0b111, 0b111, 0b111};
    EXPECT_EQ(classifyPlan(plan, 3), WalkKind::Complete);
}

} // namespace necpt
