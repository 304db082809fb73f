/**
 * @file
 * Unit tests for the translation-coherence subsystem: churn-spec
 * parsing, the shootdown batcher and directory, partial invalidation
 * of the TLB hierarchy and POM-TLB (LRU ranks of survivors must not
 * move), controller round planning under both protocols, churn-source
 * determinism, the functional-mutation property that cuckoo
 * delete + CWT downgrade round-trips leave the system invariants
 * clean across forced resizes, and coalesced walks racing shootdowns.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coherence/churn.hh"
#include "coherence/controller.hh"
#include "coherence/shootdown.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "exec/registry.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/tlb.hh"
#include "os/system.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "tests/test_util.hh"
#include "workloads/churn_sources.hh"

namespace necpt
{

namespace
{

/** One-set L1/L2 4KB geometry so eviction order is observable. */
TlbConfig
tinyTlbConfig()
{
    TlbConfig cfg;
    cfg.l1[0] = {4, 4};
    cfg.l2[0] = {4, 4};
    return cfg;
}

Translation
page4k(Addr pa)
{
    return {pa, PageSize::Page4K, true};
}

/** ECPT-everywhere system small enough to force cuckoo resizes. */
SystemConfig
smallEcptSystem(bool thp)
{
    SystemConfig cfg;
    cfg.guest_kind = PtKind::Ecpt;
    cfg.host_kind = PtKind::Ecpt;
    cfg.guest_thp = thp;
    cfg.host_thp = thp;
    cfg.guest_phys_bytes = 2ULL << 30;
    cfg.host_phys_bytes = 3ULL << 30;
    cfg.guest_ecpt.initial_slots = {1024, 1024, 512};
    cfg.host_ecpt = cfg.guest_ecpt;
    return cfg;
}

} // namespace

// -------------------------------------------------------------- ChurnSpec

TEST(ChurnSpec, DefaultIsDisabled)
{
    const ChurnSpec spec;
    EXPECT_FALSE(spec.enabled());
    EXPECT_EQ(churnSpecToString(spec), "none");
}

TEST(ChurnSpec, ParsesClausesAndRoundTrips)
{
    const ChurnSpec spec =
        parseChurnSpec("migrate:20000:4,balloon:50000,mode:hw,batch:16");
    EXPECT_TRUE(spec.enabled());
    EXPECT_EQ(spec.migrate_period, 20000u);
    EXPECT_EQ(spec.migrate_pages, 4);
    EXPECT_EQ(spec.balloon_period, 50000u);
    EXPECT_EQ(spec.thp_period, 0u);
    EXPECT_EQ(spec.mode, CoherenceMode::HwCoherence);
    EXPECT_EQ(spec.batch, 16);

    // toString emits the full grammar; reparsing it is a fixed point.
    const std::string text = churnSpecToString(spec);
    EXPECT_EQ(churnSpecToString(parseChurnSpec(text)), text);
}

TEST(ChurnSpec, AllArmsEverySource)
{
    const ChurnSpec spec = parseChurnSpec("all");
    EXPECT_GT(spec.migrate_period, 0u);
    EXPECT_GT(spec.balloon_period, 0u);
    EXPECT_GT(spec.thp_period, 0u);
    EXPECT_GT(spec.protect_period, 0u);
    EXPECT_EQ(spec.mode, CoherenceMode::SwIpi);
}

TEST(ChurnSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseChurnSpec("bogus:1"), ConfigError);
    EXPECT_THROW(parseChurnSpec("migrate"), ConfigError);
    EXPECT_THROW(parseChurnSpec("migrate:abc"), ConfigError);
    EXPECT_THROW(parseChurnSpec("mode:fast"), ConfigError);
    EXPECT_THROW(parseChurnSpec("batch:0"), ConfigError);
    EXPECT_THROW(parseChurnSpec("all:5"), ConfigError);
    // A spec that arms no source is a configuration error, not a
    // silent no-op.
    EXPECT_THROW(parseChurnSpec("mode:hw,batch:4"), ConfigError);
}

// ------------------------------------------------------ ShootdownBatcher

TEST(ShootdownBatcher, PopsOldestFirstUpToBound)
{
    ShootdownBatcher batcher;
    for (int i = 0; i < 5; ++i)
        batcher.push({static_cast<Addr>(i) << 12, 0x1000, invalid_addr,
                      0, InvalKind::Unmap});
    EXPECT_EQ(batcher.size(), 5u);

    const auto first = batcher.pop(3);
    ASSERT_EQ(first.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(first[i].gva, static_cast<Addr>(i) << 12);
    EXPECT_EQ(batcher.size(), 2u);

    const auto rest = batcher.pop(10);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0].gva, 3u << 12);
    EXPECT_TRUE(batcher.empty());
}

// --------------------------------------------------- CoherenceDirectory

TEST(CoherenceDirectory, EpochAdvancesPerRecord)
{
    CoherenceDirectory dir(8);
    EXPECT_EQ(dir.epoch(), 0u);
    dir.record({0x10000, 0x1000, invalid_addr, 0, InvalKind::Remap});
    dir.record({0x20000, 0x1000, invalid_addr, 0, InvalKind::Remap});
    EXPECT_EQ(dir.epoch(), 2u);
}

TEST(CoherenceDirectory, OverlapQueriesAreExact)
{
    CoherenceDirectory dir(8);
    dir.record({0x10000, 0x2000, invalid_addr, 0, InvalKind::Unmap});

    // Any VA inside the invalidated range observed from before the
    // record answers true; outside it answers false.
    EXPECT_TRUE(dir.invalidatedSince(0x10000, 0));
    EXPECT_TRUE(dir.invalidatedSince(0x11fff, 0));
    EXPECT_FALSE(dir.invalidatedSince(0x12000, 0));
    EXPECT_FALSE(dir.invalidatedSince(0x0f000, 0));

    // A walk that started after the record is not invalidated.
    EXPECT_FALSE(dir.invalidatedSince(0x10000, dir.epoch()));
}

TEST(CoherenceDirectory, AnswersTrueConservativelyPastTheRing)
{
    CoherenceDirectory dir(2);
    for (int i = 0; i < 4; ++i)
        dir.record({static_cast<Addr>(0x100000 + i * 0x1000), 0x1000,
                    invalid_addr, 0, InvalKind::Remap});
    // Epochs 1 and 2 were evicted from the ring: a query reaching back
    // that far must answer true even for a non-overlapping VA (a
    // spurious replay is correct; a missed one is not).
    EXPECT_TRUE(dir.invalidatedSince(0xdead000, 0));
    // Queries the ring still covers stay exact.
    EXPECT_FALSE(dir.invalidatedSince(0xdead000, 2));
    EXPECT_TRUE(dir.invalidatedSince(0x103000, 2));
}

// ---------------------------------------------- TLB partial invalidation

TEST(TlbCoherence, InvalidatePageDropsBothLevels)
{
    TlbHierarchy tlb(tinyTlbConfig());
    tlb.install(0x1000, page4k(0xA000));
    EXPECT_TRUE(tlb.holds(0x1000));
    // A one-byte range kills its page: one entry per level dies; the
    // rest of the hierarchy is untouched.
    EXPECT_EQ(tlb.invalidateRange(0x1234, 1), 2u);
    EXPECT_FALSE(tlb.holds(0x1000));
    EXPECT_EQ(tlb.invalidateRange(0x1000, 0x1000), 0u);
}

TEST(TlbCoherence, PartialInvalidationPreservesSurvivorLruRanks)
{
    // One 4-way set in both levels: install order A,B,C,D makes A the
    // LRU victim. Killing B must not touch the survivors' ranks, so
    // the next two installs first reuse B's slot, then evict A —
    // never C or D.
    TlbHierarchy tlb(tinyTlbConfig());
    const Addr a = 0x1000, b = 0x2000, c = 0x3000, d = 0x4000;
    const Addr e = 0x5000, f = 0x6000;
    tlb.install(a, page4k(0xA000));
    tlb.install(b, page4k(0xB000));
    tlb.install(c, page4k(0xC000));
    tlb.install(d, page4k(0xD000));

    EXPECT_EQ(tlb.invalidateRange(b, 0x1000), 2u);
    tlb.install(e, page4k(0xE000)); // fills B's hole
    tlb.install(f, page4k(0xF000)); // evicts A, the surviving LRU

    EXPECT_FALSE(tlb.lookup(a).hit);
    EXPECT_TRUE(tlb.lookup(c).hit);
    EXPECT_TRUE(tlb.lookup(d).hit);
    EXPECT_TRUE(tlb.lookup(e).hit);
    EXPECT_TRUE(tlb.lookup(f).hit);
}

TEST(TlbCoherence, InvalidateRangeAndAsidAreSelective)
{
    TlbHierarchy tlb(tinyTlbConfig());
    tlb.install(0x1000, page4k(0xA000));
    tlb.install(0x2000, page4k(0xB000));
    tlb.install(0x3000, page4k(0xC000));

    // [0x1000, 0x3000) covers the first two pages only.
    EXPECT_EQ(tlb.invalidateRange(0x1000, 0x2000), 4u);
    EXPECT_FALSE(tlb.holds(0x1000));
    EXPECT_FALSE(tlb.holds(0x2000));
    EXPECT_TRUE(tlb.holds(0x3000));
}

TEST(TlbCoherence, HugeRangeOverDefaultGeometryDropsExactlyTheOverlap)
{
    // Table 2's geometry. A 2MB range overlaps the 4KB pages inside
    // it, its own 2MB page and the 1GB page around it; the pages on
    // either side of each of those survive.
    TlbHierarchy tlb{TlbConfig{}};
    const Addr gb = 0x4000'0000, mb2 = 0x20'0000, kb4 = 0x1000;
    const Addr base = gb + 5 * mb2;
    const Addr inside[] = {base, base + 256 * kb4, base + mb2 - kb4};
    const Addr outside_4k[] = {base - kb4, base + mb2};
    for (const Addr va : inside)
        tlb.install(va, page4k(0x9000'0000 + (va - base)));
    for (const Addr va : outside_4k)
        tlb.install(va, page4k(0xA000'0000 + (va & (mb2 - 1))));
    tlb.install(base, {0x1'0000'0000, PageSize::Page2M, true});
    tlb.install(base - mb2, {0x1'0020'0000, PageSize::Page2M, true});
    tlb.install(base + mb2, {0x1'0040'0000, PageSize::Page2M, true});
    tlb.install(gb, {0x40'0000'0000, PageSize::Page1G, true});
    tlb.install(2 * gb, {0x80'0000'0000, PageSize::Page1G, true});

    // Three 4KB, one 2MB and one 1GB entry, each in L1 and L2.
    EXPECT_EQ(tlb.invalidateRange(base, mb2), 10u);
    for (const Addr va : inside)
        EXPECT_FALSE(tlb.holds(va)) << std::hex << va;
    for (const Addr va : outside_4k) {
        const auto r = tlb.lookup(va);
        EXPECT_TRUE(r.hit) << std::hex << va;
        EXPECT_EQ(r.translation.size, PageSize::Page4K) << std::hex << va;
    }
    for (const Addr va : {base - mb2 + 0x123, base + mb2 + mb2 - 1}) {
        const auto r = tlb.lookup(va);
        EXPECT_TRUE(r.hit) << std::hex << va;
        EXPECT_EQ(r.translation.size, PageSize::Page2M) << std::hex << va;
    }
    const auto r1g = tlb.lookup(2 * gb + 0x1234);
    EXPECT_TRUE(r1g.hit);
    EXPECT_EQ(r1g.translation.size, PageSize::Page1G);
    // Only the dropped 1GB page covered this address.
    EXPECT_FALSE(tlb.lookup(gb + 7 * mb2).hit);
}

// ------------------------------------------ POM-TLB partial invalidation

TEST(PomTlbCoherence, PartialInvalidationPreservesSurvivorLruRanks)
{
    // Single-set POM-TLB, same contract as the per-core TLBs: killing
    // B leaves A the eviction victim, not C or D.
    BumpAllocator alloc;
    PomTlb pom(alloc, 1, 4);
    pom.install(0x1000, page4k(0xA000));
    pom.install(0x2000, page4k(0xB000));
    pom.install(0x3000, page4k(0xC000));
    pom.install(0x4000, page4k(0xD000));

    EXPECT_EQ(pom.invalidateRange(0x2000, 0x1000), 1u);
    pom.install(0x5000, page4k(0xE000)); // fills B's hole
    pom.install(0x6000, page4k(0xF000)); // evicts A

    EXPECT_FALSE(pom.lookup(0x1000).hit);
    EXPECT_TRUE(pom.lookup(0x3000).hit);
    EXPECT_TRUE(pom.lookup(0x4000).hit);
    EXPECT_TRUE(pom.lookup(0x5000).hit);
    EXPECT_TRUE(pom.lookup(0x6000).hit);
}

TEST(PomTlbCoherence, InvalidateRangeAndAsidAreSelective)
{
    BumpAllocator alloc;
    PomTlb pom(alloc, 64, 4);
    pom.install(0x1000, page4k(0xA000));
    pom.install(0x2000, page4k(0xB000));
    pom.install(0x9000, page4k(0xC000));

    EXPECT_EQ(pom.invalidateRange(0x1000, 0x2000), 2u);
    EXPECT_FALSE(pom.lookup(0x1000).hit);
    EXPECT_FALSE(pom.lookup(0x2000).hit);
    EXPECT_TRUE(pom.lookup(0x9000).hit);
}

// --------------------------------------------------- controller rounds

TEST(CoherenceController, EmptyBatcherStartsNoRound)
{
    CoherenceController ctrl(parseChurnSpec("migrate:1000"));
    EXPECT_FALSE(ctrl.pending());
    EXPECT_FALSE(ctrl.beginRound(0, 100).started);
}

TEST(CoherenceController, SwRoundStallsInitiatorUntilLastAck)
{
    CoherenceController ctrl(parseChurnSpec("migrate:1000,mode:sw"));
    std::vector<TlbHierarchy> tlbs;
    tlbs.reserve(4);
    for (int c = 0; c < 4; ++c) {
        tlbs.emplace_back(tinyTlbConfig());
        ctrl.attachCore(&tlbs.back(), nullptr);
    }
    tlbs[0].install(0x5000, page4k(0xA000));
    tlbs[1].install(0x5000, page4k(0xA000));

    ctrl.queueInvalidation(
        {0x5000, 0x1000, invalid_addr, 0, InvalKind::Remap});
    EXPECT_TRUE(ctrl.pending());

    const auto round = ctrl.beginRound(/*initiator=*/0, /*now=*/1000);
    ASSERT_TRUE(round.started);
    EXPECT_EQ(round.invalidations, 1);
    EXPECT_EQ(round.entries_dropped, 4u); // 2 cores x 2 TLB levels
    // Without fault injection every responder acks at the same time:
    // IPI delivery + handler + ack return.
    const Cycles ack = CoherenceController::sw_ipi_cycles
        + CoherenceController::sw_handler_cycles
        + CoherenceController::sw_ack_cycles;
    EXPECT_EQ(round.completion, 1000 + ack);
    EXPECT_EQ(round.initiator_stall, ack);
    EXPECT_EQ(ctrl.stats().acks, 3u); // every core but the initiator

    ctrl.finishRound(round);
    EXPECT_EQ(ctrl.stats().rounds, 1u);
    EXPECT_FALSE(tlbs[0].holds(0x5000));
    EXPECT_FALSE(tlbs[1].holds(0x5000));
}

TEST(CoherenceController, HwRoundCostScalesWithSharersAndNeverStalls)
{
    CoherenceController ctrl(parseChurnSpec("migrate:1000,mode:hw"));
    std::vector<TlbHierarchy> tlbs;
    tlbs.reserve(4);
    for (int c = 0; c < 4; ++c) {
        tlbs.emplace_back(tinyTlbConfig());
        ctrl.attachCore(&tlbs.back(), nullptr);
    }
    tlbs[1].install(0x5000, page4k(0xA000));
    tlbs[3].install(0x5000, page4k(0xA000));

    ctrl.queueInvalidation(
        {0x5000, 0x1000, invalid_addr, 0, InvalKind::Remap});
    const auto round = ctrl.beginRound(0, 500);
    ASSERT_TRUE(round.started);
    EXPECT_EQ(round.sharers, 2);
    EXPECT_EQ(round.completion,
              500 + CoherenceController::hw_base_cycles
                  + 2 * CoherenceController::hw_per_sharer_cycles);
    EXPECT_EQ(round.initiator_stall, 0u);
    EXPECT_EQ(ctrl.stats().acks, 0u); // no IPIs in hw mode
}

TEST(CoherenceController, RoundsHonorTheBatchBound)
{
    CoherenceController ctrl(parseChurnSpec("migrate:1000,batch:8"));
    for (int i = 0; i < 10; ++i)
        ctrl.queueInvalidation({static_cast<Addr>(i) << 12, 0x1000,
                                invalid_addr, 0, InvalKind::Unmap});
    const auto first = ctrl.beginRound(0, 0);
    EXPECT_EQ(first.invalidations, 8);
    EXPECT_TRUE(ctrl.pending());
    const auto second = ctrl.beginRound(0, 100);
    EXPECT_EQ(second.invalidations, 2);
    EXPECT_FALSE(ctrl.pending());
}

TEST(CoherenceController, ScrubsTheSharedPomTlb)
{
    CoherenceController ctrl(parseChurnSpec("migrate:1000"));
    BumpAllocator alloc;
    PomTlb pom(alloc, 64, 4);
    ctrl.attachPom(&pom);
    pom.install(0x7000, page4k(0xA000));

    ctrl.queueInvalidation(
        {0x7000, 0x1000, invalid_addr, 0, InvalKind::Unmap});
    const auto round = ctrl.beginRound(0, 0);
    ASSERT_TRUE(round.started);
    EXPECT_EQ(ctrl.stats().pom_entries, 1u);
    EXPECT_FALSE(pom.lookup(0x7000).hit);
}

// ------------------------------------------------------- churn sources

TEST(ChurnSources, BuiltInFixedOrderFromSpec)
{
    const auto sources = makeChurnSources(parseChurnSpec("all"), 42);
    ASSERT_EQ(sources.size(), 4u);
    EXPECT_EQ(sources[0]->name(), "migrate");
    EXPECT_EQ(sources[1]->name(), "balloon");
    EXPECT_EQ(sources[2]->name(), "thp");
    EXPECT_EQ(sources[3]->name(), "protect");

    const auto one =
        makeChurnSources(parseChurnSpec("balloon:9000:8"), 42);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0]->name(), "balloon");
    EXPECT_EQ(one[0]->period(), 9000u);
}

TEST(ChurnSources, FiringIsAPureFunctionOfSpecAndSeed)
{
    // Two identical systems churned by same-seed sources mutate
    // identically: the victim stream depends on nothing but (spec,
    // seed) and the system state.
    auto runReplica = [] {
        NestedSystem sys(smallEcptSystem(false));
        const Addr base = sys.mmapRegion(8ULL << 20);
        for (Addr va = base; va < base + (8ULL << 20); va += 4096)
            sys.ensureResident(va);
        const ChurnSpec spec =
            parseChurnSpec("migrate:1000:8,protect:1000:4");
        CoherenceController ctrl(spec);
        auto sources = makeChurnSources(spec, 1234);
        for (int pass = 0; pass < 8; ++pass)
            for (auto &src : sources)
                src->fire(sys, ctrl);
        return std::make_pair(ctrl.stats().invalidations,
                              ctrl.stats().migrate_pages);
    };
    const auto a = runReplica();
    const auto b = runReplica();
    EXPECT_GT(a.first, 0u);
    EXPECT_EQ(a, b);
}

// ------------------------------------- delete/downgrade property test

TEST(CoherenceProperty, ChurnRoundTripsKeepInvariantsAcrossResizes)
{
    // Cuckoo delete + CWT downgrade round-trips: resident pages far
    // beyond the initial table sizes force elastic resizes, then
    // repeated balloon-out (delete) / refault (reinsert) / migrate /
    // write-protect rounds must leave the CWTs exactly consistent with
    // the tables after every phase.
    NestedSystem sys(smallEcptSystem(false));
    const std::uint64_t bytes = 24ULL << 20; // 6144 pages >> 1024 slots
    const Addr base = sys.mmapRegion(bytes);
    const std::uint64_t npages = bytes >> 12;
    for (Addr va = base; va < base + bytes; va += 4096)
        sys.ensureResident(va);
    ASSERT_NO_THROW(sys.auditInvariants());

    Rng rng(7);
    for (int round = 0; round < 3; ++round) {
        std::vector<Addr> evicted;
        for (int i = 0; i < 512; ++i) {
            const auto info =
                sys.balloonOut(base + (rng.below(npages) << 12));
            if (info.ok)
                evicted.push_back(info.page);
        }
        EXPECT_FALSE(evicted.empty());
        ASSERT_NO_THROW(sys.auditInvariants()) << "after balloon out";

        for (const Addr va : evicted)
            sys.ensureResident(va);
        ASSERT_NO_THROW(sys.auditInvariants()) << "after refault";

        for (int i = 0; i < 128; ++i)
            sys.migratePage(base + (rng.below(npages) << 12));
        ASSERT_NO_THROW(sys.auditInvariants()) << "after migrate";

        for (int i = 0; i < 128; ++i)
            sys.writeProtectPage(base + (rng.below(npages) << 12));
        ASSERT_NO_THROW(sys.auditInvariants()) << "after protect";
    }

    // Everything ballooned back in still translates end to end.
    EXPECT_TRUE(sys.fullTranslate(base).valid);
    EXPECT_TRUE(sys.fullTranslate(base + bytes - 4096).valid);
}

TEST(CoherenceProperty, ThpSplitCollapseRoundTripsStayConsistent)
{
    // Demote (2MB -> 512 x 4KB) floods the 4KB cuckoo way past its
    // initial size (forced resize); promote collapses it back. The CWT
    // smaller-page bits must track both directions exactly.
    NestedSystem sys(smallEcptSystem(true));
    const std::uint64_t bytes = 16ULL << 20; // 8 x 2MB blocks
    const Addr base = sys.mmapRegion(bytes, /*thp_eligible=*/true);
    for (Addr va = base; va < base + bytes; va += pageBytes(PageSize::Page2M))
        sys.ensureResident(va);
    ASSERT_NO_THROW(sys.auditInvariants());

    for (int round = 0; round < 2; ++round) {
        for (Addr va = base; va < base + bytes;
             va += pageBytes(PageSize::Page2M)) {
            EXPECT_EQ(sys.thpDemote(va), 512);
            ASSERT_NO_THROW(sys.auditInvariants()) << "after demote";
        }
        for (Addr va = base; va < base + bytes;
             va += pageBytes(PageSize::Page2M)) {
            EXPECT_EQ(sys.thpPromote(va), 512);
            ASSERT_NO_THROW(sys.auditInvariants()) << "after promote";
        }
    }
    const Translation t = sys.guestTranslate(base);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.size, PageSize::Page2M);
}

// ------------------------------------------- churn sweep determinism

TEST(CoherenceSweep, ChurnGridIsWorkerCountInvariant)
{
    // The full churn pipeline (sources -> batcher -> rounds -> replay)
    // through the sweep engine: jobs=1 and jobs=8 must produce
    // bit-identical stats, including every shootdown counter.
    SimParams params;
    params.warmup_accesses = 2'000;
    params.measure_accesses = 8'000;
    params.scale_denominator = 2048;
    params.cores = 2;
    params.churn =
        parseChurnSpec("migrate:3000:4,balloon:9000:16,batch:8");

    const auto specs = configAppJobs(
        "churn-mini",
        {makeConfig(ConfigId::NestedRadix),
         makeConfig(ConfigId::NestedEcpt)},
        {"GUPS"}, params);

    SweepOptions serial_opts, wide_opts;
    serial_opts.jobs = 1;
    serial_opts.progress = nullptr;
    wide_opts.jobs = 8;
    wide_opts.progress = nullptr;
    const ResultSink serial = SweepEngine(serial_opts).run(specs);
    const ResultSink wide = SweepEngine(wide_opts).run(specs);

    ASSERT_EQ(serial.size(), 2u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const SimResult &s = serial.records()[i].out.sim;
        const SimResult &w = wide.records()[i].out.sim;
        EXPECT_EQ(serial.records()[i].status, JobStatus::Ok);
        EXPECT_EQ(wide.records()[i].status, JobStatus::Ok);
        EXPECT_EQ(s.cycles, w.cycles) << s.config;
        EXPECT_EQ(s.walks, w.walks);
        EXPECT_EQ(s.mmu_busy_cycles, w.mmu_busy_cycles);
        EXPECT_EQ(s.metrics, w.metrics);
        EXPECT_GT(s.metrics.at("shootdown.rounds"), 0.0) << s.config;
    }
}

// The coalescer's staleness contract: a waiter parked on a primary
// whose walk raced an invalidation must retire the *replayed*
// translation, never the stale one. The fan-out happens after the
// primary's replay (and NECPT_ASSERT(tr.valid) guards every retire),
// so the test's job is to prove the race actually occurs: merges and
// replays non-zero in one run. Churn here is dense (a full
// migrate+protect batch every 100 cycles): the coherence directory's
// 256-record ring overflows past every in-flight walk's epoch,
// forcing its conservative invalidated-since answer and with it the
// replay path on walks whose waiters are parked.
TEST(WalkCoalescing, WaitersAndReplaysCooccurUnderChurn)
{
    SimParams params;
    params.warmup_accesses = 500;
    params.measure_accesses = 2000;
    params.cores = 2;
    params.max_outstanding_walks = 4;
    params.walk_coalescing = true;
    params.scale_denominator = 64;
    params.churn =
        parseChurnSpec("migrate:100:64,protect:100:64,batch:64");
    params.faults = parseFaultSpec("shootdown:0.05");

    Simulator sim(makeConfig(ConfigId::NestedEcpt), params);
    sim.run("GUPS");
    MetricsRegistry reg;
    sim.exportMetrics(reg);

    double coalesced = 0.0, replays = 0.0;
    for (const auto &[name, value] : reg.scalarSnapshot()) {
        if (name.find(".coalesced") != std::string::npos)
            coalesced += value;
        if (name.find("walk_replays") != std::string::npos)
            replays += value;
    }
    EXPECT_GT(coalesced, 0.0)
        << "no walk ever merged: the workload no longer exercises "
           "the coalescer";
    EXPECT_GT(replays, 0.0)
        << "no walk ever raced an invalidation: the staleness path "
           "is untested";
}

} // namespace necpt
