/** @file Cross-cutting integration and property tests: differential
 *  correctness of all walkers, the Section-4.4 staleness argument, and
 *  end-to-end system invariants. */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "mmu/tlb.hh"
#include "walk/baselines.hh"
#include "walk/hybrid.hh"
#include "walk/native_ecpt.hh"
#include "walk/native_radix.hh"
#include "walk/nested_ecpt.hh"
#include "walk/nested_radix.hh"

namespace necpt
{

namespace
{

SystemConfig
mixedSystem(PtKind guest, PtKind host)
{
    SystemConfig cfg;
    cfg.virtualized = true;
    cfg.guest_kind = guest;
    cfg.host_kind = host;
    cfg.guest_thp = true;
    cfg.host_thp = true;
    cfg.guest_thp_coverage = 0.5; // force mixed page sizes
    cfg.host_thp_coverage = 0.7;
    cfg.guest_phys_bytes = 2ULL << 30;
    cfg.host_phys_bytes = 3ULL << 30;
    cfg.guest_ecpt.initial_slots = {512, 512, 256};
    cfg.host_ecpt = cfg.guest_ecpt;
    cfg.host_ecpt.has_pte_cwt = true;
    return cfg;
}

/**
 * Differential property: a walker must agree with the functional
 * ground truth on a randomized mixed-page-size address set, repeatedly
 * (warm caches must never change results).
 */
template <typename WalkerT, typename... Args>
void
differentialCheck(PtKind guest, PtKind host, Args &&...args)
{
    SystemConfig cfg = mixedSystem(guest, host);
    NestedSystem sys(cfg);
    MemoryHierarchy mem(MemHierarchyConfig{}, 1);
    WalkerT walker(sys, mem, 0, std::forward<Args>(args)...);

    const Addr base = sys.mmapRegion(256ULL << 20);
    Rng rng(1234);
    std::vector<Addr> addrs;
    for (int i = 0; i < 200; ++i)
        addrs.push_back(base + rng.below(256ULL << 20));
    for (Addr gva : addrs)
        sys.ensureResident(gva);

    Cycles now = 0;
    for (int round = 0; round < 2; ++round) {
        for (Addr gva : addrs) {
            const WalkResult r = walker.translate(gva, now);
            ASSERT_TRUE(r.translation.valid);
            const Translation truth = sys.fullTranslate(gva);
            ASSERT_EQ(r.translation.apply(gva), truth.apply(gva))
                << "round " << round << " gva " << std::hex << gva;
            now += 2000;
        }
    }
}

} // namespace

TEST(Differential, NestedRadixAgreesWithGroundTruth)
{
    differentialCheck<NestedRadixWalker>(PtKind::Radix, PtKind::Radix);
}

TEST(Differential, NestedEcptAdvancedAgreesWithGroundTruth)
{
    differentialCheck<NestedEcptWalker>(PtKind::Ecpt, PtKind::Ecpt,
                                        NestedEcptFeatures::advanced());
}

TEST(Differential, NestedEcptPlainAgreesWithGroundTruth)
{
    differentialCheck<NestedEcptWalker>(PtKind::Ecpt, PtKind::Ecpt,
                                        NestedEcptFeatures::plain());
}

TEST(Differential, HybridAgreesWithGroundTruth)
{
    differentialCheck<HybridWalker>(PtKind::Radix, PtKind::Ecpt);
}

TEST(Differential, AgileAgreesWithGroundTruth)
{
    differentialCheck<AgilePagingWalker>(PtKind::Radix, PtKind::Radix);
}

TEST(Differential, FlatNestedAgreesWithGroundTruth)
{
    differentialCheck<FlatNestedWalker>(PtKind::Radix, PtKind::Flat);
}

/**
 * Section 4.4: the hPA of a gPTE changes under cuckoo churn, so a
 * cached hPTE->gPTE pointer (an NTLB analogue for ECPTs) would go
 * stale. We snapshot the host address of a gECPT slot, churn the
 * guest table, and verify the slot's host address really changed —
 * the reason neither design caches Step-2 pointers.
 */
TEST(Staleness, GptePointersMoveUnderChurn)
{
    SystemConfig cfg = mixedSystem(PtKind::Ecpt, PtKind::Ecpt);
    cfg.guest_thp = false;
    cfg.host_thp = false;
    cfg.guest_ecpt.initial_slots = {64, 64, 32}; // tiny: resize soon
    NestedSystem sys(cfg);

    const Addr probe_va = sys.mmapRegion(512ULL << 20);
    sys.ensureResident(probe_va);
    EcptPageTable &guest = *sys.guestEcpt();
    const auto key = guest.blockKey(probe_va, PageSize::Page4K);
    const Addr slot_before =
        guest.tableOf(PageSize::Page4K).find(key).slot_addr;

    // Churn: fault in thousands of pages; the PTE table resizes and
    // displaces entries.
    for (Addr off = 4096; off < (64ULL << 20); off += 4096)
        sys.ensureResident(probe_va + off);

    const auto hit = guest.tableOf(PageSize::Page4K).find(key);
    ASSERT_TRUE(hit);
    EXPECT_NE(hit.slot_addr, slot_before)
        << "expected elastic resizing to move the gPTE";
    // And the translation itself is still correct.
    EXPECT_TRUE(sys.fullTranslate(probe_va).valid);
}

/** The TLB + walker pipeline returns stable translations. */
TEST(EndToEnd, TlbAndWalkerConsistent)
{
    SystemConfig cfg = mixedSystem(PtKind::Ecpt, PtKind::Ecpt);
    NestedSystem sys(cfg);
    MemoryHierarchy mem(MemHierarchyConfig{}, 1);
    TlbHierarchy tlb;
    NestedEcptWalker walker(sys, mem, 0);

    const Addr base = sys.mmapRegion(64ULL << 20);
    Rng rng(5);
    Cycles now = 0;
    for (int i = 0; i < 500; ++i) {
        const Addr gva = base + rng.below(64ULL << 20);
        sys.ensureResident(gva);
        auto hit = tlb.lookup(gva);
        Translation t = hit.translation;
        if (!hit.hit) {
            const WalkResult r = walker.translate(gva, now);
            t = r.translation;
            tlb.install(gva, t);
        }
        ASSERT_TRUE(t.valid);
        ASSERT_EQ(t.apply(gva), sys.fullTranslate(gva).apply(gva));
        now += 300;
    }
    EXPECT_GT(tlb.l1Stats().hits(), 0u);
    EXPECT_GT(walker.stats().walks.value(), 0u);
}

/** Memory accounting stays consistent across a busy system. */
TEST(EndToEnd, AccountingInvariants)
{
    SystemConfig cfg = mixedSystem(PtKind::Ecpt, PtKind::Ecpt);
    NestedSystem sys(cfg);
    const Addr base = sys.mmapRegion(128ULL << 20);
    for (Addr off = 0; off < (128ULL << 20); off += 4096)
        sys.ensureResident(base + off);
    sys.quiesce();

    // Every structure byte is accounted in its pool.
    EXPECT_GT(sys.guestStructureBytes(), 0u);
    EXPECT_GT(sys.hostStructureBytes(), 0u);
    EXPECT_LE(sys.guestStructureBytes(),
              sys.guestPool().usedBytes());
    EXPECT_LE(sys.hostStructureBytes() + sys.guestPteBytes(),
              sys.hostPool().usedBytes() + sys.guestStructureBytes());
    // PTE bytes = 8B per mapped page on both sides.
    EXPECT_EQ(sys.guestPteBytes() % pte_bytes, 0u);
    EXPECT_EQ(sys.hostPteBytes() % pte_bytes, 0u);
    EXPECT_GT(sys.hostPteBytes(), 0u);
}

/** Walk-kind counters are exhaustive: every walk is classified. */
TEST(EndToEnd, WalkKindsExhaustive)
{
    SystemConfig cfg = mixedSystem(PtKind::Ecpt, PtKind::Ecpt);
    NestedSystem sys(cfg);
    MemoryHierarchy mem(MemHierarchyConfig{}, 1);
    NestedEcptWalker walker(sys, mem, 0);

    const Addr base = sys.mmapRegion(64ULL << 20);
    Rng rng(9);
    Cycles now = 0;
    const int walks = 300;
    for (int i = 0; i < walks; ++i) {
        const Addr gva = base + rng.below(64ULL << 20);
        sys.ensureResident(gva);
        walker.translate(gva, now);
        now += 500;
    }
    std::uint64_t guest_total = 0;
    for (int k = 0; k < 4; ++k)
        guest_total += walker.stats().guest_kind[k].value();
    EXPECT_EQ(guest_total, static_cast<std::uint64_t>(walks));
}

} // namespace necpt
