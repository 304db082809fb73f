/** @file Tests for the fault-injection subsystem: the SimError
 *  taxonomy, FaultSpec parsing, FaultPlan determinism, every
 *  injection site (pools, cuckoo tables, traces), the ECPT/CWT
 *  invariant audit, the engine's retry-with-backoff, and the fault
 *  campaign's --jobs-independent reproducibility. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "exec/engine.hh"
#include "exec/fault_campaign.hh"
#include "os/phys_pool.hh"
#include "pt/ecpt.hh"
#include "tests/test_util.hh"
#include "workloads/trace.hh"

namespace necpt
{

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

// ------------------------------------------------------ error taxonomy

TEST(ErrorTaxonomy, KindsAndRetryability)
{
    const ConfigError config("bad");
    EXPECT_EQ(config.kind(), ErrorKind::Config);
    EXPECT_STREQ(config.kindName(), "config");
    EXPECT_FALSE(config.retryable());

    const ResourceExhausted pool("pool 'phys' full");
    EXPECT_EQ(pool.kind(), ErrorKind::ResourceExhausted);
    EXPECT_STREQ(pool.kindName(), "resource_exhausted");
    EXPECT_TRUE(pool.retryable());

    const InvariantViolation inv("stale CWT");
    EXPECT_EQ(inv.kind(), ErrorKind::Invariant);
    EXPECT_FALSE(inv.retryable());

    // All kinds are SimErrors — one catch site suffices.
    EXPECT_THROW(throw TraceError("t.bin", 0, "x"), SimError);
}

TEST(ErrorTaxonomy, TraceErrorNamesFileAndOffset)
{
    const TraceError e("cap.bin", 67, "partial trailing record");
    EXPECT_EQ(e.file(), "cap.bin");
    EXPECT_EQ(e.offset(), 67u);
    const std::string what = e.what();
    EXPECT_NE(what.find("cap.bin"), std::string::npos);
    EXPECT_NE(what.find("byte offset 67"), std::string::npos);
    EXPECT_FALSE(e.retryable());
}

// ------------------------------------------------------- spec parsing

TEST(FaultSpecParse, SitesAndRoundTrip)
{
    const FaultSpec spec =
        parseFaultSpec("pool:0.9,kicks:0.05,resize:0.01,mem:0.02:400");
    EXPECT_DOUBLE_EQ(spec.pool_fill, 0.9);
    EXPECT_DOUBLE_EQ(spec.kick_prob, 0.05);
    EXPECT_DOUBLE_EQ(spec.resize_prob, 0.01);
    EXPECT_DOUBLE_EQ(spec.mem_prob, 0.02);
    EXPECT_EQ(spec.mem_spike_cycles, 400u);
    EXPECT_FALSE(spec.trace_corruption);
    EXPECT_TRUE(spec.enabled());

    // Round-trip through the renderer re-parses to the same spec.
    const FaultSpec again = parseFaultSpec(faultSpecToString(spec));
    EXPECT_DOUBLE_EQ(again.pool_fill, spec.pool_fill);
    EXPECT_DOUBLE_EQ(again.kick_prob, spec.kick_prob);
    EXPECT_DOUBLE_EQ(again.resize_prob, spec.resize_prob);
    EXPECT_DOUBLE_EQ(again.mem_prob, spec.mem_prob);
    EXPECT_EQ(again.mem_spike_cycles, spec.mem_spike_cycles);
}

TEST(FaultSpecParse, AllArmsEverySite)
{
    const FaultSpec spec = parseFaultSpec("all");
    EXPECT_GE(spec.pool_fill, 0.0);
    EXPECT_GT(spec.kick_prob, 0.0);
    EXPECT_GT(spec.resize_prob, 0.0);
    EXPECT_GT(spec.mem_prob, 0.0);
    EXPECT_TRUE(spec.trace_corruption);
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultSpec("pool"), ConfigError);
    EXPECT_THROW(parseFaultSpec("pool:nope"), ConfigError);
    EXPECT_THROW(parseFaultSpec("kicks:1.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("unknown:0.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec(""), ConfigError);
    EXPECT_FALSE(FaultSpec{}.enabled());
}

// --------------------------------------------------- plan determinism

TEST(FaultPlan, SameSeedSameDecisions)
{
    FaultSpec spec;
    spec.kick_prob = 0.3;
    spec.mem_prob = 0.2;
    spec.pool_fill = 0.5;

    FaultPlan a(spec, 1234), b(spec, 1234);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.forceKickExhaustion(), b.forceKickExhaustion());
        EXPECT_EQ(a.memSpikeCycles(), b.memSpikeCycles());
        EXPECT_EQ(a.failPoolAlloc(0.7), b.failPoolAlloc(0.7));
    }
    EXPECT_EQ(a.counters().forced_kicks, b.counters().forced_kicks);
    EXPECT_EQ(a.counters().mem_spikes, b.counters().mem_spikes);
    EXPECT_EQ(a.counters().pool_failures, b.counters().pool_failures);
    EXPECT_GT(a.counters().forced_kicks, 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge)
{
    FaultSpec spec;
    spec.kick_prob = 0.5;
    FaultPlan a(spec, 1), b(spec, 2);
    int diffs = 0;
    for (int i = 0; i < 200; ++i)
        diffs += a.forceKickExhaustion() != b.forceKickExhaustion();
    EXPECT_GT(diffs, 0);
}

TEST(FaultPlan, KickNeverFiresTwiceConsecutively)
{
    FaultSpec spec;
    spec.kick_prob = 1.0;
    FaultPlan plan(spec, 7);
    bool prev = false;
    for (int i = 0; i < 100; ++i) {
        const bool fired = plan.forceKickExhaustion();
        EXPECT_FALSE(prev && fired) << "double fire at draw " << i;
        prev = fired;
    }
    EXPECT_GT(plan.counters().forced_kicks, 0u);
}

TEST(FaultPlan, ForcedResizesAreCapped)
{
    FaultSpec spec;
    spec.resize_prob = 1.0;
    FaultPlan plan(spec, 7);
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        fired += plan.forceResizeWindow();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(plan.counters().forced_resizes, 3u);
}

TEST(FaultPlan, DisarmedSitesNeverFire)
{
    FaultPlan plan(FaultSpec{}, 99);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(plan.failPoolAlloc(1.0));
        EXPECT_FALSE(plan.forceKickExhaustion());
        EXPECT_FALSE(plan.forceResizeWindow());
        EXPECT_EQ(plan.memSpikeCycles(), 0u);
    }
}

// ----------------------------------------------------------- pool site

TEST(PoolFaults, GenuineExhaustionThrowsNamedError)
{
    // 1MB pool: the frame zone is 7/8 of it, so 4KB frames run out.
    PhysMemPool pool(0, 1ULL << 20, "tiny");
    bool threw = false;
    for (int i = 0; i < 1024 && !threw; ++i) {
        try {
            pool.allocFrame(PageSize::Page4K);
        } catch (const ResourceExhausted &e) {
            threw = true;
            EXPECT_NE(std::string(e.what()).find("tiny"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(threw);
    // Accounting consistent after the throw: everything handed out is
    // still accounted, nothing from the failed attempt.
    EXPECT_LE(pool.usedBytes(), pool.capacityBytes());
    EXPECT_EQ(pool.usedBytes() % 4096, 0u);
}

TEST(PoolFaults, InjectedFailureLeavesAccountingIntact)
{
    PhysMemPool pool(0, 1ULL << 30, "guest-phys");
    FaultSpec spec;
    spec.pool_fill = 0.0; // armed from the first allocation
    FaultPlan plan(spec, 42);
    pool.setFaultPlan(&plan);

    bool threw = false;
    std::uint64_t used_before_throw = 0;
    for (int i = 0; i < 64 && !threw; ++i) {
        used_before_throw = pool.usedBytes();
        try {
            pool.allocFrame(PageSize::Page4K);
        } catch (const ResourceExhausted &e) {
            threw = true;
            EXPECT_NE(std::string(e.what()).find("injected"),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find("guest-phys"),
                      std::string::npos);
            EXPECT_EQ(pool.usedBytes(), used_before_throw);
        }
    }
    EXPECT_TRUE(threw);
    EXPECT_GT(plan.counters().pool_failures, 0u);

    // Disarmed again, the pool works normally.
    pool.setFaultPlan(nullptr);
    EXPECT_NO_THROW(pool.allocFrame(PageSize::Page4K));
}

// ------------------------------------------- scattered allocator paths

TEST(ScatteredAllocator, MidAssemblyFailureRollsBackTakenFrames)
{
    PhysMemPool pool(0, 1ULL << 30, "host-phys");
    PtRegionRegistry registry;
    ScatteredPtAllocator alloc(pool, registry);

    // pool_fill 0 with the pool plan makes roughly every other
    // allocFrame throw, so some 4KB node allocation fails.
    FaultSpec spec;
    spec.pool_fill = 0.0;
    FaultPlan plan(spec, 3);
    pool.setFaultPlan(&plan);

    const std::uint64_t before = pool.usedBytes();
    std::vector<Addr> nodes;
    bool threw = false;
    for (int i = 0; i < 16 && !threw; ++i) {
        try {
            const Addr base = alloc.allocRegion(4096);
            nodes.push_back(base);
            EXPECT_TRUE(registry.contains(base));
            alloc.freeRegion(base, 4096); // keep usage flat
        } catch (const ResourceExhausted &) {
            threw = true;
        }
    }
    ASSERT_TRUE(threw);
    // The failing call took no frame and registered nothing: usage is
    // back where it started and no node, nor the frame the pool hands
    // out next, is registered.
    EXPECT_EQ(pool.usedBytes(), before);
    pool.setFaultPlan(nullptr);
    nodes.push_back(pool.allocFrame(PageSize::Page4K));
    for (const Addr node : nodes)
        EXPECT_FALSE(registry.contains(node));
}

// --------------------------------------------------------- cuckoo site

TEST(CuckooFaults, InjectedKickExhaustionIsAbsorbed)
{
    BumpAllocator alloc;
    CuckooConfig cfg;
    cfg.initial_slots = 256;
    ElasticCuckooTable<std::uint64_t> table(alloc, cfg);

    FaultSpec spec;
    spec.kick_prob = 0.2;
    FaultPlan plan(spec, 11);
    table.setFaultPlan(&plan);

    const std::uint64_t before_slots = table.slotsPerWay();
    for (std::uint64_t k = 1; k <= 300; ++k) {
        table.insert(k, k * 10);
        // The homeless bound: parked entries are always re-placed
        // before insert() returns.
        ASSERT_EQ(table.homelessCount(), 0u) << "after key " << k;
    }
    EXPECT_GT(table.injectedKickFailures(), 0u);
    for (std::uint64_t k = 1; k <= 300; ++k) {
        auto hit = table.find(k);
        ASSERT_TRUE(hit) << "key " << k;
        EXPECT_EQ(*hit.value, k * 10);
    }
    // Injected failures alone must not balloon the table: any growth
    // observed comes from genuine load-factor resizes (<= a couple of
    // doublings for 300 keys in 256*3 slots).
    EXPECT_LE(table.slotsPerWay(), before_slots * 4);
}

TEST(CuckooFaults, ForcedResizeWindowKeepsBothGenerationsProbeable)
{
    BumpAllocator alloc;
    CuckooConfig cfg;
    cfg.initial_slots = 256;
    ElasticCuckooTable<std::uint64_t> table(alloc, cfg);

    // Pre-populate without faults so the forced window has entries to
    // leave in the old generation.
    for (std::uint64_t k = 1; k <= 200; ++k)
        table.insert(k, k);

    FaultSpec spec;
    spec.resize_prob = 1.0;
    FaultPlan plan(spec, 5);
    table.setFaultPlan(&plan);

    table.insert(1000, 1000); // forces the resize window
    EXPECT_EQ(table.injectedResizes(), 1u);
    EXPECT_TRUE(table.resizing());

    // Mid-resize: every key must be findable (two-generation probe),
    // and probe plans must cover both generations.
    for (std::uint64_t k = 1; k <= 200; ++k)
        ASSERT_TRUE(table.find(k)) << "key " << k;
    std::vector<Addr> probes;
    table.probeAddrs(1, (1u << cfg.ways) - 1, probes);
    EXPECT_EQ(probes.size(), 2u * cfg.ways);

    // Let it finish; the cap keeps further forced windows bounded.
    for (std::uint64_t k = 2000; k < 2300; ++k)
        table.insert(k, k);
    table.finishResize();
    EXPECT_FALSE(table.resizing());
    EXPECT_LE(table.injectedResizes(), 3u);
    for (std::uint64_t k = 1; k <= 200; ++k)
        ASSERT_TRUE(table.find(k));
}

// -------------------------------- satellite (c): resize under pressure

TEST(EcptFaults, InFlightResizeUnderInsertionPressureStaysConsistent)
{
    BumpAllocator alloc;
    EcptConfig cfg;
    cfg.initial_slots = {256, 128, 64};
    cfg.has_pte_cwt = true; // audit all three CWTs
    EcptPageTable pt(alloc, cfg);

    FaultSpec spec;
    spec.kick_prob = 0.1;   // forced max_kicks exhaustion
    spec.resize_prob = 0.02; // forced mid-probe resize windows
    FaultPlan plan(spec, 77);
    pt.setFaultPlan(&plan);

    // Insertion pressure: enough 4KB mappings to drive genuine
    // resizes on top of the injected ones, plus 2MB mappings so the
    // PMD table and its CWT see pressure too.
    for (std::uint64_t i = 0; i < 4000; ++i)
        pt.map(0x10'0000'0000ULL + i * 4096, 0x2'0000'0000ULL + i * 4096,
               PageSize::Page4K);
    for (std::uint64_t i = 0; i < 256; ++i)
        pt.map(0x20'0000'0000ULL + (i << 21), 0x4'0000'0000ULL + (i << 21),
               PageSize::Page2M);

    auto &t4k = pt.tableOf(PageSize::Page4K);
    EXPECT_GT(t4k.injectedKickFailures() + t4k.injectedResizes(), 0u);

    // The audit must pass *while* resizes are still in flight: no
    // homeless entries, no key in both generations, and every CWT
    // descriptor naming the way that really holds its block.
    EXPECT_NO_THROW(pt.auditInvariants("pressure-test"));

    // And again after quiescing (all migrations completed).
    pt.quiesce();
    EXPECT_NO_THROW(pt.auditInvariants("pressure-test-quiesced"));

    // Spot-check translations survived the churn.
    for (std::uint64_t i = 0; i < 4000; i += 97) {
        const auto t = pt.lookup(0x10'0000'0000ULL + i * 4096);
        ASSERT_TRUE(t.valid) << "4K mapping " << i;
    }
}

TEST(EcptFaults, AuditCatchesAStaleCwtWay)
{
    BumpAllocator alloc;
    EcptConfig cfg;
    cfg.initial_slots = {256, 128, 64};
    EcptPageTable pt(alloc, cfg);
    for (std::uint64_t i = 0; i < 64; ++i)
        pt.map(0x1000'0000ULL + (i << 21), 0x2000'0000ULL + (i << 21),
               PageSize::Page2M);
    EXPECT_NO_THROW(pt.auditInvariants("clean"));

    // Manufacture staleness: clear a descriptor behind the table's
    // back, as a missed CWT update would.
    pt.cwtOf(PageSize::Page2M)->clearPresent(0x1000'0000ULL);
    EXPECT_THROW(pt.auditInvariants("stale"), InvariantViolation);
}

// --------------------------------------------------------- trace site

TEST(TraceFaults, ForgedCorruptionModesAllThrowTraceError)
{
    // The four corruption modes are selected by seed % 4; every one
    // must be rejected with the file and a plausible offset named.
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const std::string path =
            "necpt_test_forged_" + std::to_string(seed) + ".trc";
        const std::string mode = writeCorruptTrace(path, seed);
        try {
            TraceWorkload wl(path);
            FAIL() << "loader accepted mode " << mode;
        } catch (const TraceError &e) {
            EXPECT_EQ(e.file(), path) << mode;
        }
        std::remove(path.c_str());
    }
}

TEST(TraceFaults, PartialTrailingRecordNamesExactOffset)
{
    // Satellite (b): a file whose size is not a multiple of the
    // record size is rejected with the exact stray-byte offset.
    // Layout: 24B header + 24B VMA + 1 record (16B) + 3 stray bytes.
    const std::string path = "necpt_test_partial.trc";
    const std::string mode = writeCorruptTrace(path, 2);
    ASSERT_EQ(mode, "partial-record");
    try {
        TraceWorkload wl(path);
        FAIL() << "loader accepted a partial trailing record";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.offset(), 64u); // 67-byte file, 3 stray bytes
        EXPECT_NE(std::string(e.what()).find("partial trailing record"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceFaults, RecordCountMismatchNamesPromisedEnd)
{
    const std::string path = "necpt_test_count.trc";
    const std::string mode = writeCorruptTrace(path, 3);
    ASSERT_EQ(mode, "count-mismatch");
    try {
        TraceWorkload wl(path);
        FAIL() << "loader accepted a lying record count";
    } catch (const TraceError &e) {
        // Header promises 8 records: table ends at 48 + 8*16 = 176.
        EXPECT_EQ(e.offset(), 176u);
        EXPECT_NE(std::string(e.what()).find("promises 8 records"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------- engine retry logic

TEST(EngineRetry, RetryableErrorIsRetriedWithErrorChain)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.retries = 3;
    opts.backoff_ms = 1;
    opts.progress = nullptr;
    const SweepEngine engine(opts);

    JobSpec spec;
    spec.key = "retry/flaky";
    spec.fn = [](const JobContext &ctx) -> JobOutput {
        if (ctx.attempt < 2)
            throw ResourceExhausted(
                strfmt("transient pressure, attempt %d", ctx.attempt));
        JobOutput out;
        out.metrics["attempt"] = ctx.attempt;
        return out;
    };

    const ResultSink sink = engine.run({spec});
    ASSERT_EQ(sink.size(), 1u);
    const JobRecord &r = sink.records()[0];
    EXPECT_EQ(r.status, JobStatus::Ok);
    EXPECT_EQ(r.attempts, 3);
    ASSERT_EQ(r.error_chain.size(), 2u);
    EXPECT_NE(r.error_chain[0].find("attempt 0"), std::string::npos);
    EXPECT_NE(r.error_chain[1].find("attempt 1"), std::string::npos);
    EXPECT_EQ(r.out.metrics.at("attempt"), 2.0);
}

TEST(EngineRetry, RetriesExhaustKeepingFullChain)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.retries = 2;
    opts.backoff_ms = 1;
    opts.progress = nullptr;
    const SweepEngine engine(opts);

    JobSpec spec;
    spec.key = "retry/hopeless";
    spec.fn = [](const JobContext &) -> JobOutput {
        throw ResourceExhausted("pool 'guest-phys' exhausted");
    };

    const ResultSink sink = engine.run({spec});
    const JobRecord &r = sink.records()[0];
    EXPECT_EQ(r.status, JobStatus::Failed);
    EXPECT_EQ(r.attempts, 3); // first try + 2 retries
    EXPECT_EQ(r.error_kind, "resource_exhausted");
    EXPECT_EQ(r.error_chain.size(), 3u);
    EXPECT_EQ(r.error_chain.back(), r.error);
}

TEST(EngineRetry, NonRetryableErrorsFailImmediately)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.retries = 5;
    opts.backoff_ms = 1;
    opts.progress = nullptr;
    const SweepEngine engine(opts);

    std::atomic<int> config_calls{0}, untyped_calls{0};
    JobSpec config_spec;
    config_spec.key = "retry/config";
    config_spec.fn = [&](const JobContext &) -> JobOutput {
        ++config_calls;
        throw ConfigError("cores must be in [1, 8]");
    };
    JobSpec untyped_spec;
    untyped_spec.key = "retry/untyped";
    untyped_spec.fn = [&](const JobContext &) -> JobOutput {
        ++untyped_calls;
        throw std::logic_error("plain exception");
    };

    const ResultSink sink = engine.run({config_spec, untyped_spec});
    EXPECT_EQ(config_calls.load(), 1);
    EXPECT_EQ(untyped_calls.load(), 1);
    EXPECT_EQ(sink.records()[0].error_kind, "config");
    EXPECT_EQ(sink.records()[0].attempts, 1);
    EXPECT_EQ(sink.records()[1].error_kind, "exception");
    EXPECT_EQ(sink.records()[1].attempts, 1);
}

TEST(EngineRetry, AuditHookFailureIsATypedFailure)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = nullptr;
    const SweepEngine engine(opts);

    JobSpec spec;
    spec.key = "audit/violation";
    spec.fn = [](const JobContext &) { return JobOutput{}; };
    spec.audit = [](const JobContext &) {
        throw InvariantViolation("CWT way bit stale after fault");
    };

    const ResultSink sink = engine.run({spec});
    const JobRecord &r = sink.records()[0];
    EXPECT_EQ(r.status, JobStatus::Failed);
    EXPECT_EQ(r.error_kind, "invariant");
    EXPECT_NE(r.error.find("CWT way bit stale"), std::string::npos);
}

TEST(EngineRetry, FaultSeedVariesPerAttemptNotPerJobCount)
{
    const JobContext first{42, 0};
    const JobContext second{42, 1};
    EXPECT_NE(first.faultSeed(), second.faultSeed());
    // Pure function of (seed, attempt): identical inputs, identical
    // draw — the scheduling-independence anchor.
    EXPECT_EQ(first.faultSeed(), (JobContext{42, 0}.faultSeed()));
}

// ------------------- satellite (d): campaign --jobs reproducibility

namespace
{

/** A deterministic synthetic grid: some jobs pass, some fail typed,
 *  some retry — everything derived from the job seed only. */
std::vector<JobSpec>
syntheticCampaignJobs(int n)
{
    std::vector<JobSpec> jobs;
    for (int i = 0; i < n; ++i) {
        JobSpec spec;
        spec.key = "synth/job" + std::to_string(i);
        spec.fn = [](const JobContext &ctx) -> JobOutput {
            // Outcome classes derive purely from the job seed (stable
            // across attempts) so retries behave deterministically:
            //   0: retryable failure on every attempt (chain of 3)
            //   1: corrupt trace, never retried
            //   2: retryable failure on the first attempt only
            const std::uint64_t cls = ctx.seed % 5;
            if (cls == 0)
                throw ResourceExhausted(
                    strfmt("persistent pressure, attempt %d",
                           ctx.attempt));
            if (cls == 1)
                throw TraceError("synthetic.trc", ctx.seed % 128,
                                 "synthetic corruption");
            if (cls == 2 && ctx.attempt < 1)
                throw ResourceExhausted("transient pressure");
            JobOutput out;
            out.metrics["fault_draw"] =
                static_cast<double>(ctx.faultSeed() % 1000);
            out.sim.config = "synthetic";
            out.sim.app = "none";
            return out;
        };
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

std::string
runCampaignJson(int workers, int n_jobs, const std::string &path)
{
    SweepOptions opts;
    opts.jobs = workers;
    opts.retries = 2;
    opts.backoff_ms = 1;
    opts.base_seed = 0xFA075EED;
    opts.progress = nullptr;
    const SweepEngine engine(opts);
    const ResultSink sink = engine.run(syntheticCampaignJobs(n_jobs));
    // Canonical JSON: wall-clock omitted, so the comparison below is
    // byte-exact. `jobs` is pinned so the worker count is invisible.
    sink.writeJson(path, "synthetic", opts.base_seed, /*jobs=*/0,
                   /*canonical=*/true);
    const std::string text = slurp(path);
    std::remove(path.c_str());
    return text;
}

} // namespace

TEST(CampaignDeterminism, OneWorkerAndEightWorkersMatchByteForByte)
{
    const std::string serial =
        runCampaignJson(1, 24, "necpt_test_campaign_j1.json");
    const std::string parallel =
        runCampaignJson(8, 24, "necpt_test_campaign_j8.json");
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // The fixture must actually exercise failures and retries, or the
    // comparison proves nothing about fault determinism.
    EXPECT_NE(serial.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(serial.find("\"error_kind\":\"resource_exhausted\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"error_kind\":\"trace\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"attempts\":3"), std::string::npos);
    EXPECT_NE(serial.find("\"attempts\":2"), std::string::npos);
    EXPECT_NE(serial.find("\"status\":\"ok\""), std::string::npos);
}

TEST(CampaignJobs, ReplicationsRekeyTheGridAndAddTraceJobs)
{
    const SweepGrid *grid = findSweepGrid("smoke");
    ASSERT_NE(grid, nullptr);

    FaultCampaignOptions copts;
    copts.spec = parseFaultSpec("all");
    copts.fault_seeds = 3;
    SimParams params;
    const auto jobs = makeFaultCampaignJobs(*grid, params, copts);

    const std::size_t per_rep = grid->make_jobs(params).size() + 1;
    ASSERT_EQ(jobs.size(), 3 * per_rep);
    EXPECT_EQ(jobs[0].key.rfind("faults/s0/", 0), 0u);
    EXPECT_EQ(jobs[per_rep].key.rfind("faults/s1/", 0), 0u);
    // Distinct replication prefixes give distinct derived seeds — the
    // mechanism that makes each replication an independent fault draw.
    EXPECT_NE(deriveJobSeed(1, jobs[0].key),
              deriveJobSeed(1, jobs[per_rep].key));
    // The trace-corruption job closes each replication.
    EXPECT_NE(jobs[per_rep - 1].key.find("/trace"), std::string::npos);
}

} // namespace necpt
