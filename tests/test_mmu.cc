/** @file Unit tests for the MMU structures: AssocCache, TLBs, PWC,
 *  NTLB, STC, CWC, adaptive controller, POM-TLB. */

#include <gtest/gtest.h>

#include "mmu/assoc_cache.hh"
#include "mmu/cwc.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/tlb.hh"
#include "mmu/walk_caches.hh"
#include "tests/test_util.hh"

namespace necpt
{

// ------------------------------------------------------------ AssocCache

TEST(AssocCache, FindInsertLru)
{
    AssocCache<std::uint64_t, int> cache(2); // FA, 2 entries
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
    AssocCache<std::uint64_t, int> cache(4);
    cache.find(1);
    cache.insert(1, 1);
    cache.find(1);
    EXPECT_EQ(cache.stats().hits(), 1u);
    EXPECT_EQ(cache.stats().misses(), 1u);
    cache.resetStats();
    EXPECT_EQ(cache.stats().accesses(), 0u);
}

TEST(AssocCache, PeekDoesNotDisturb)
{
    AssocCache<std::uint64_t, int> cache(2);
    cache.insert(1, 10);
    cache.insert(2, 20);
    cache.peek(1); // no recency update
    cache.find(2); // 2 MRU
    cache.insert(3, 30); // evicts 1 (peek didn't refresh it)
    EXPECT_EQ(cache.peek(1), nullptr);
}

TEST(AssocCache, SetAssociativeRespectsSets)
{
    AssocCache<std::uint64_t, int> cache(8, 2); // 4 sets x 2 ways
    EXPECT_EQ(cache.capacity(), 8u);
    cache.insert(0, 0);
    cache.insert(4, 4);
    // Whatever the set mapping, one set's two ways hold both keys.
    EXPECT_NE(cache.peek(0), nullptr);
    EXPECT_NE(cache.peek(4), nullptr);
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

// ------------------------------------------------------------------ CWC

TEST(Cwc, PerLevelCapacities)
{
    CuckooWalkCache cwc({0, 16, 2});
    EXPECT_FALSE(cwc.caches(PageSize::Page4K));
    EXPECT_TRUE(cwc.caches(PageSize::Page2M));
    EXPECT_TRUE(cwc.caches(PageSize::Page1G));
    // Lookups on an uncached level always miss (and count).
    EXPECT_FALSE(cwc.lookup(PageSize::Page4K, 1).has_value());
    EXPECT_EQ(cwc.stats(PageSize::Page4K).misses(), 1u);
}

TEST(Cwc, FillThenHit)
{
    CuckooWalkCache cwc({4, 16, 2});
    EXPECT_FALSE(cwc.lookup(PageSize::Page2M, 7).has_value());
    cwc.fill(PageSize::Page2M, 7, 0xDEAD);
    const auto payload = cwc.lookup(PageSize::Page2M, 7);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, 0xDEADu);
    EXPECT_EQ(cwc.stats(PageSize::Page2M).hits(), 1u);
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
