/** @file End-to-end simulator tests: determinism, sanity, and the
 *  paper's headline ordering on a scaled-down run. */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/metrics.hh"
#include "exec/registry.hh"
#include "sim/critical_path.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace necpt
{

namespace
{
SimParams
quickParams()
{
    SimParams params;
    params.warmup_accesses = 20'000;
    params.measure_accesses = 60'000;
    params.scale_denominator = 256;
    return params;
}
} // namespace

TEST(Simulator, RunsAndPopulatesResult)
{
    const auto cfg = makeConfig(ConfigId::NestedEcptThp);
    const SimResult r = runSim(cfg, quickParams(), "GUPS");
    EXPECT_GT(r.instructions, 100'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.walks, 0u);
    EXPECT_GT(r.mmu_busy_cycles, 0u);
    EXPECT_GT(r.mmu_rpki, 0.0);
    EXPECT_GT(r.l2_tlb_misses, 0u);
    EXPECT_GE(r.stc_hit_rate, 0.0);
    EXPECT_GT(r.pte_bytes_total, 0u);
    EXPECT_EQ(r.app, "GUPS");
}

TEST(Simulator, Deterministic)
{
    const auto cfg = makeConfig(ConfigId::NestedRadix);
    const SimResult a = runSim(cfg, quickParams(), "BFS");
    const SimResult b = runSim(cfg, quickParams(), "BFS");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.mmu_busy_cycles, b.mmu_busy_cycles);
}

TEST(Simulator, AllTable1ConfigsRun)
{
    for (const ConfigId id : table1Configs()) {
        const SimResult r =
            runSim(makeConfig(id), quickParams(), "BFS");
        EXPECT_GT(r.cycles, 0u) << configName(id);
        EXPECT_GT(r.walks, 0u) << configName(id);
    }
}

TEST(Simulator, BaselineConfigsRun)
{
    for (const ConfigId id :
         {ConfigId::PlainNestedEcptThp, ConfigId::AgilePagingIdealThp,
          ConfigId::PomTlbThp, ConfigId::FlatNestedThp}) {
        const SimResult r =
            runSim(makeConfig(id), quickParams(), "MUMmer");
        EXPECT_GT(r.cycles, 0u) << configName(id);
    }
}

/** The paper's central claim, on a tiny run: Nested ECPTs beat Nested
 *  Radix on the TLB-hostile GUPS. */
TEST(Simulator, NestedEcptBeatsNestedRadixOnGups)
{
    SimParams params = quickParams();
    params.measure_accesses = 120'000;
    const SimResult radix =
        runSim(makeConfig(ConfigId::NestedRadix), params, "GUPS");
    const SimResult ecpt =
        runSim(makeConfig(ConfigId::NestedEcpt), params, "GUPS");
    EXPECT_LT(ecpt.cycles, radix.cycles);
    // And it spends fewer MMU busy cycles (Figure 10).
    EXPECT_LT(ecpt.mmu_busy_cycles, radix.mmu_busy_cycles);
}

TEST(Simulator, NativeFasterThanNested)
{
    const SimResult native =
        runSim(makeConfig(ConfigId::Radix), quickParams(), "BFS");
    const SimResult nested =
        runSim(makeConfig(ConfigId::NestedRadix), quickParams(), "BFS");
    EXPECT_LT(native.cycles, nested.cycles);
}

TEST(Simulator, ThpReducesWalks)
{
    const SimResult flat =
        runSim(makeConfig(ConfigId::NestedRadix), quickParams(), "GUPS");
    const SimResult thp = runSim(makeConfig(ConfigId::NestedRadixThp),
                                 quickParams(), "GUPS");
    // GUPS is fully huge-page friendly: far fewer L2 TLB misses.
    EXPECT_LT(thp.l2_tlb_misses, flat.l2_tlb_misses / 2);
    EXPECT_LT(thp.cycles, flat.cycles);
}

TEST(Simulator, WalkKindsPopulatedForNestedEcpt)
{
    const SimResult r = runSim(makeConfig(ConfigId::NestedEcptThp),
                               quickParams(), "GUPS");
    double gsum = 0, hsum = 0;
    for (int k = 0; k < 4; ++k) {
        gsum += r.guest_kind_frac[k];
        hsum += r.host_kind_frac[k];
    }
    EXPECT_NEAR(gsum, 1.0, 1e-9);
    EXPECT_NEAR(hsum, 1.0, 1e-9);
    // Steps report sensible parallel-access counts.
    for (int s = 0; s < 3; ++s)
        EXPECT_GE(r.step_avg[s], 1.0);
}

/** Overlapped walks (max_outstanding_walks > 1) stay a pure function
 *  of the inputs: the event scheduler's (cycle, priority, sequence)
 *  order admits no wall-clock or iteration-order nondeterminism. */
/** The stats reset that opens the measured window clears the walk
 *  caches' hit counters too: every Nested ECPTs walk looks up the
 *  gCWC's PUD level once, so its lookups equal the measured walks. */
TEST(Simulator, WalkCacheStatsCoverOnlyTheMeasuredWindow)
{
    Simulator sim(makeConfig(ConfigId::NestedEcpt), quickParams());
    sim.run("GUPS");
    MetricsRegistry reg;
    sim.exportMetrics(reg);
    const double walks = reg.scalar("walk.nested_ecpt.walks");
    ASSERT_GT(walks, 0.0);
    EXPECT_EQ(reg.scalar("cwc.gcwc.pud.hits")
                  + reg.scalar("cwc.gcwc.pud.misses"),
              walks);
}

TEST(Simulator, OverlappedWalksDeterministic)
{
    SimParams params = quickParams();
    params.max_outstanding_walks = 4;
    const auto cfg = makeConfig(ConfigId::NestedEcpt);
    const SimResult a = runSim(cfg, params, "GUPS");
    const SimResult b = runSim(cfg, params, "GUPS");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.mmu_busy_cycles, b.mmu_busy_cycles);
    EXPECT_DOUBLE_EQ(a.walk_inflight_avg, b.walk_inflight_avg);
    EXPECT_EQ(a.walk_inflight_max, b.walk_inflight_max);
}

/** The 8-core contention smoke: with the cap at 4 the cores really do
 *  keep multiple walks in flight (walk.inflight > 1), and raising the
 *  cap never slows the machine down relative to serialized walks. */
TEST(Simulator, OverlappedWalksShowConcurrency)
{
    SimParams params = quickParams();
    params.cores = 8;
    params.warmup_accesses = 4'000;
    params.measure_accesses = 12'000;
    ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
    configureSharedResources(cfg, 8);

    const SimResult serial = runSim(cfg, params, "GUPS");
    params.max_outstanding_walks = 4;
    const SimResult mlp = runSim(cfg, params, "GUPS");

    EXPECT_GT(mlp.walk_inflight_avg, 1.0);
    EXPECT_GT(mlp.walk_inflight_max, 1u);
    EXPECT_DOUBLE_EQ(mlp.metrics.at("walk.inflight"),
                     mlp.walk_inflight_avg);
    // Overlapping independent misses can only help execution time.
    EXPECT_LT(mlp.cycles, serial.cycles);
    // Concurrent walks for one page are not coalesced (GUPS's
    // read-modify-write pairs re-walk a page whose first walk is
    // still in flight), so the walk count can only grow.
    EXPECT_GE(mlp.walks, serial.walks);
}

namespace
{
/** Short runs for the critical-path checks: @p mlp walks in flight
 *  per core at most. */
SimParams
spineParams(int cores, int mlp)
{
    SimParams params;
    params.cores = cores;
    params.warmup_accesses = 2'000;
    params.measure_accesses = 20'000;
    params.scale_denominator = 256;
    params.max_outstanding_walks = mlp;
    return params;
}

/** One core's spine, read back from the report. */
struct CoreSpine
{
    double spine = 0;
    double ends = 0;
    std::string kinds; //!< the "spine by event kind:" line's tail
};

/** The per-core spines of a Nested ECPTs GUPS run under @p params. */
std::vector<CoreSpine>
runSpines(SimParams params)
{
    CriticalPathRecorder recorder(params.cores);
    params.critical_path = &recorder;
    runSim(makeConfig(ConfigId::NestedEcpt), params, "GUPS");

    const std::string report = recorder.report();
    std::istringstream lines(report);
    std::vector<CoreSpine> spines;
    const std::string kinds_head = "  spine by event kind:";
    std::string line;
    while (std::getline(lines, line)) {
        int core = 0;
        CoreSpine s;
        if (std::sscanf(line.c_str(),
                        "core %d: spine %lf cycles over %*s edges "
                        "(ends cycle %lf)",
                        &core, &s.spine, &s.ends)
            == 3) {
            EXPECT_EQ(core, static_cast<int>(spines.size())) << report;
            spines.push_back(s);
        } else if (line.rfind(kinds_head, 0) == 0 && !spines.empty()) {
            spines.back().kinds = line.substr(kinds_head.size());
        }
    }
    EXPECT_EQ(spines.size(), static_cast<std::size_t>(params.cores))
        << report;
    return spines;
}
} // namespace

/** Overlapped Nested ECPTs walks finish inside completion pumps, which
 *  no core event depends on. Each retire depends on the step that
 *  issued its walk, so every core's spine still runs back to the start
 *  of the run rather than stopping at the pump. */
TEST(CriticalPath, OverlappedWalkSpinesSpanTheRun)
{
    for (const CoreSpine &s : runSpines(spineParams(2, 4)))
        EXPECT_GT(s.spine, 0.5 * s.ends) << s.kinds;
}

/** Serialized walks finish inside the step that issued them, so each
 *  core's spine is its chain of steps from cycle 0 to its last step. */
TEST(CriticalPath, SerializedSpineCoversTheRun)
{
    for (const CoreSpine &s : runSpines(spineParams(2, 1))) {
        EXPECT_GT(s.ends, 0.0);
        EXPECT_DOUBLE_EQ(s.spine, s.ends);
        EXPECT_EQ(s.kinds.rfind(" step 100.0% (", 0), 0u) << s.kinds;
        EXPECT_EQ(s.kinds.find("retire"), std::string::npos) << s.kinds;
    }
}

TEST(Simulator, InvalidOutstandingWalksRejected)
{
    SimParams params = quickParams();
    params.max_outstanding_walks = 0;
    EXPECT_THROW(
        Simulator(makeConfig(ConfigId::NestedEcpt), params),
        ConfigError);
}

namespace
{
/** Run @p configs x @p apps through the sweep engine on @p jobs
 *  workers. */
ResultSink
runConfigApps(const std::vector<ExperimentConfig> &configs,
              const std::vector<std::string> &apps,
              const SimParams &params, int jobs)
{
    SweepOptions options;
    options.jobs = jobs;
    options.progress = nullptr;
    return SweepEngine(options).run(
        configAppJobs("test", configs, apps, params));
}
} // namespace

TEST(ExperimentHelpers, GridAndSpeedup)
{
    SimParams params = quickParams();
    params.measure_accesses = 30'000;
    const ResultSink sink =
        runConfigApps({makeConfig(ConfigId::NestedRadix),
                       makeConfig(ConfigId::NestedEcpt)},
                      {"BFS"}, params, 1);
    ASSERT_EQ(sink.okCount(), 2u);
    const SimResult &radix = sink.find("test/Nested Radix/BFS")->out.sim;
    const SimResult &ecpt = sink.find("test/Nested ECPTs/BFS")->out.sim;
    EXPECT_EQ(radix.config, "Nested Radix");
    EXPECT_EQ(ecpt.app, "BFS");
    const double s = static_cast<double>(radix.cycles)
        / static_cast<double>(ecpt.cycles);
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 3.0);
}

TEST(ExperimentHelpers, EnvDefaults)
{
    const SimParams params = paramsFromEnv();
    EXPECT_GT(params.measure_accesses, 0u);
    EXPECT_GE(appsFromEnv().size(), 1u);
    EXPECT_GE(jobsFromEnv(), 1);
}

TEST(ExperimentHelpers, ParallelGridMatchesSerial)
{
    SimParams params = quickParams();
    params.measure_accesses = 20'000;
    const std::vector<ExperimentConfig> configs = {
        makeConfig(ConfigId::NestedRadix),
        makeConfig(ConfigId::NestedEcpt),
    };
    const std::vector<std::string> apps = {"BFS", "GUPS"};

    const ResultSink serial = runConfigApps(configs, apps, params, 1);
    const ResultSink parallel = runConfigApps(configs, apps, params, 4);

    ASSERT_EQ(serial.okCount(), configs.size() * apps.size());
    ASSERT_EQ(parallel.okCount(), serial.okCount());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const JobRecord &a = serial.records()[i];
        const JobRecord &b = parallel.records()[i];
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(a.out.sim.cycles, b.out.sim.cycles) << a.key;
        EXPECT_EQ(a.out.sim.walks, b.out.sim.walks) << a.key;
    }
}

} // namespace necpt
