/** @file The sweep engine: thread-pool scheduling, key-derived seed
 *  determinism (jobs=1 == jobs=8), per-job fault isolation (throws
 *  and timeouts become failed records), structured result export, and
 *  the grid registry (every configuration runs the sweep's seed). */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "coherence/churn.hh"
#include "common/fault.hh"
#include "exec/engine.hh"
#include "exec/registry.hh"
#include "exec/thread_pool.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "tests/test_util.hh"

namespace necpt
{

namespace
{

/** A cheap deterministic job: stats are a pure function of the seed. */
JobSpec
fakeJob(const std::string &key)
{
    JobSpec spec;
    spec.key = key;
    spec.fn = [key](const JobContext &ctx) {
        JobOutput out;
        out.sim.config = "fake";
        out.sim.app = key;
        out.sim.cycles = ctx.seed % 100'000;
        out.sim.instructions = ctx.seed % 777;
        out.metrics["seed_lo"] = static_cast<double>(ctx.seed & 0xFF);
        return out;
    };
    return spec;
}

SweepOptions
quietOptions(int jobs)
{
    SweepOptions options;
    options.jobs = jobs;
    options.progress = nullptr;
    return options;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

// ---------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskAcrossWorkers)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);

    // The pool stays usable after a wait().
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, WaitBlocksUntilInFlightTasksFinish)
{
    ThreadPool pool(2);
    std::atomic<bool> finished{false};
    pool.submit([&finished] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        finished.store(true);
    });
    pool.wait();
    EXPECT_TRUE(finished.load());
}

TEST(ThreadPool, ClampsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

// ------------------------------------------------------ seed derivation

TEST(JobSeed, PureFunctionOfBaseAndKey)
{
    const std::uint64_t a = deriveJobSeed(1, "fig9/Nested ECPTs/GUPS");
    EXPECT_EQ(a, deriveJobSeed(1, "fig9/Nested ECPTs/GUPS"));
    EXPECT_NE(a, deriveJobSeed(2, "fig9/Nested ECPTs/GUPS"));
    EXPECT_NE(a, deriveJobSeed(1, "fig9/Nested ECPTs/BFS"));
    EXPECT_NE(deriveJobSeed(1, ""), 0u) << "seed 0 must never escape";
}

TEST(JobSeed, SpreadsAcrossNearbyKeys)
{
    std::set<std::uint64_t> seeds;
    for (int i = 0; i < 256; ++i)
        seeds.insert(deriveJobSeed(0xD15EA5E, "job" + std::to_string(i)));
    EXPECT_EQ(seeds.size(), 256u);
}

// -------------------------------------------------------- determinism

TEST(SweepEngine, RecordsIdenticalAcrossWorkerCounts)
{
    std::vector<JobSpec> specs;
    for (int i = 0; i < 24; ++i)
        specs.push_back(fakeJob("det/job" + std::to_string(i)));

    const ResultSink serial = SweepEngine(quietOptions(1)).run(specs);
    const ResultSink wide = SweepEngine(quietOptions(8)).run(specs);

    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const JobRecord &s = serial.records()[i];
        const JobRecord &w = wide.records()[i];
        EXPECT_EQ(s.key, w.key) << "submission order must be kept";
        EXPECT_EQ(s.seed, w.seed);
        EXPECT_EQ(s.status, JobStatus::Ok);
        EXPECT_EQ(w.status, JobStatus::Ok);
        EXPECT_EQ(s.out.sim.cycles, w.out.sim.cycles);
        EXPECT_EQ(s.out.sim.instructions, w.out.sim.instructions);
        EXPECT_EQ(s.out.metrics.at("seed_lo"),
                  w.out.metrics.at("seed_lo"));
    }
}

TEST(SweepEngine, RealSimulationGridIsWorkerCountInvariant)
{
    // A miniature fig9-style grid through the real simulator: two
    // configurations x one app, short runs. jobs=1 and jobs=4 must
    // produce bit-identical stats (seeds never depend on scheduling).
    SimParams params;
    params.warmup_accesses = 2'000;
    params.measure_accesses = 10'000;
    params.scale_denominator = 2048;
    const auto specs = configAppJobs(
        "mini",
        {makeConfig(ConfigId::NestedRadix),
         makeConfig(ConfigId::NestedEcpt)},
        {"GUPS"}, params);

    const ResultSink serial = SweepEngine(quietOptions(1)).run(specs);
    const ResultSink wide = SweepEngine(quietOptions(4)).run(specs);
    ASSERT_EQ(serial.size(), 2u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const SimResult &s = serial.records()[i].out.sim;
        const SimResult &w = wide.records()[i].out.sim;
        EXPECT_EQ(serial.records()[i].status, JobStatus::Ok);
        EXPECT_EQ(s.cycles, w.cycles) << s.config;
        EXPECT_EQ(s.instructions, w.instructions);
        EXPECT_EQ(s.walks, w.walks);
        EXPECT_EQ(s.l2_tlb_misses, w.l2_tlb_misses);
        EXPECT_EQ(s.mmu_busy_cycles, w.mmu_busy_cycles);
    }
    EXPECT_GT(serial.records()[0].out.sim.cycles, 0u);
}

TEST(SweepEngine, OverlappedWalkGridIsWorkerCountInvariant)
{
    // Same contract with the event-driven overlap path active
    // (max_outstanding_walks = 4): in-flight walk interleaving is
    // scheduler-ordered, never wall-clock-ordered, so jobs=1 and
    // jobs=8 still produce bit-identical stats.
    SimParams params;
    params.warmup_accesses = 2'000;
    params.measure_accesses = 8'000;
    params.scale_denominator = 2048;
    params.max_outstanding_walks = 4;
    const auto specs = configAppJobs(
        "mlp-mini",
        {makeConfig(ConfigId::NestedRadix),
         makeConfig(ConfigId::NestedEcpt)},
        {"GUPS"}, params);

    const ResultSink serial = SweepEngine(quietOptions(1)).run(specs);
    const ResultSink wide = SweepEngine(quietOptions(8)).run(specs);
    ASSERT_EQ(serial.size(), 2u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const SimResult &s = serial.records()[i].out.sim;
        const SimResult &w = wide.records()[i].out.sim;
        EXPECT_EQ(serial.records()[i].status, JobStatus::Ok);
        EXPECT_EQ(s.cycles, w.cycles) << s.config;
        EXPECT_EQ(s.walks, w.walks);
        EXPECT_EQ(s.mmu_busy_cycles, w.mmu_busy_cycles);
        EXPECT_EQ(s.walk_inflight_avg, w.walk_inflight_avg);
    }
}

TEST(SweepEngine, CoalescedChurnGridIsWorkerCountInvariant)
{
    // Walk coalescing + translation churn + shootdown faults, the
    // configuration where the walk-MSHR's merge/replay interactions
    // are densest: jobs=1 and jobs=8 must still be bit-identical, and
    // the merges must actually happen (walk.coalesced > 0) or the
    // comparison proves nothing.
    SimParams params;
    params.warmup_accesses = 1'000;
    params.measure_accesses = 5'000;
    params.scale_denominator = 64;
    params.cores = 2;
    params.max_outstanding_walks = 4;
    params.walk_coalescing = true;
    params.churn = parseChurnSpec(
        "migrate:5000:8,balloon:20000:16,protect:15000:4,batch:8");
    params.faults = parseFaultSpec("shootdown:0.05");
    const auto specs =
        configAppJobs("coalesce-mini", {makeConfig(ConfigId::NestedEcpt)},
                      {"GUPS", "SysBench"}, params);

    const ResultSink serial = SweepEngine(quietOptions(1)).run(specs);
    const ResultSink wide = SweepEngine(quietOptions(8)).run(specs);
    ASSERT_EQ(serial.size(), specs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const SimResult &s = serial.records()[i].out.sim;
        const SimResult &w = wide.records()[i].out.sim;
        EXPECT_EQ(serial.records()[i].status, JobStatus::Ok);
        EXPECT_EQ(wide.records()[i].status, JobStatus::Ok);
        EXPECT_EQ(s.cycles, w.cycles) << specs[i].key;
        EXPECT_EQ(s.walks, w.walks);
        EXPECT_EQ(s.mmu_busy_cycles, w.mmu_busy_cycles);
        const auto sc = s.metrics.find("walk.coalesced");
        const auto wc = w.metrics.find("walk.coalesced");
        ASSERT_NE(sc, s.metrics.end());
        ASSERT_NE(wc, w.metrics.end());
        EXPECT_EQ(sc->second, wc->second);
        EXPECT_GT(sc->second, 0.0) << specs[i].key;
    }
}

// ----------------------------------------------------- fault isolation

TEST(SweepEngine, ThrowingJobBecomesFailedRecordSiblingsComplete)
{
    std::vector<JobSpec> specs;
    specs.push_back(fakeJob("iso/before"));
    JobSpec bad;
    bad.key = "iso/bad";
    bad.fn = [](const JobContext &) -> JobOutput {
        throw std::runtime_error("walker exploded");
    };
    specs.push_back(std::move(bad));
    specs.push_back(fakeJob("iso/after"));

    const ResultSink sink = SweepEngine(quietOptions(4)).run(specs);
    ASSERT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.okCount(), 2u);
    EXPECT_EQ(sink.failedCount(), 1u);

    const JobRecord *bad_rec = sink.find("iso/bad");
    ASSERT_NE(bad_rec, nullptr);
    EXPECT_EQ(bad_rec->status, JobStatus::Failed);
    EXPECT_EQ(bad_rec->error, "walker exploded");
    EXPECT_EQ(sink.find("iso/before")->status, JobStatus::Ok);
    EXPECT_EQ(sink.find("iso/after")->status, JobStatus::Ok);
}

TEST(SweepEngine, NonStdExceptionIsCaptured)
{
    JobSpec bad;
    bad.key = "iso/odd";
    bad.fn = [](const JobContext &) -> JobOutput { throw 42; };
    const ResultSink sink = SweepEngine(quietOptions(1)).run({bad});
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.records()[0].status, JobStatus::Failed);
    EXPECT_EQ(sink.records()[0].error, "unknown exception");
}

TEST(SweepEngine, TimedOutJobIsReportedWhileSiblingsComplete)
{
    // The sleeper polls a shared flag so the detached runner drains
    // promptly once the test is done with it.
    auto stop = std::make_shared<std::atomic<bool>>(false);

    std::vector<JobSpec> specs;
    JobSpec slow;
    slow.key = "iso/slow";
    slow.timeout_ms = 80;
    slow.fn = [stop](const JobContext &) {
        for (int i = 0; i < 100 && !stop->load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return JobOutput{};
    };
    specs.push_back(std::move(slow));
    specs.push_back(fakeJob("iso/fast"));

    const ResultSink sink = SweepEngine(quietOptions(2)).run(specs);
    ASSERT_EQ(sink.size(), 2u);
    const JobRecord *slow_rec = sink.find("iso/slow");
    ASSERT_NE(slow_rec, nullptr);
    EXPECT_EQ(slow_rec->status, JobStatus::TimedOut);
    EXPECT_NE(slow_rec->error.find("timed out"), std::string::npos);
    EXPECT_EQ(sink.find("iso/fast")->status, JobStatus::Ok);

    stop->store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// ------------------------------------------------------- result export

TEST(ResultSink, JsonCarriesEveryRecordAndFailureDetail)
{
    std::vector<JobSpec> specs = {fakeJob("exp/one"), fakeJob("exp/two")};
    JobSpec bad;
    bad.key = "exp/bad";
    bad.fn = [](const JobContext &) -> JobOutput {
        throw std::runtime_error("quoted \"message\"");
    };
    specs.push_back(std::move(bad));

    const ResultSink sink = SweepEngine(quietOptions(2)).run(specs);
    const std::string path = "test_exec_results.json";
    ASSERT_TRUE(sink.writeJson(path, "unit", 0xD15EA5E, 2));
    const std::string json = slurp(path);
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"sweep\":\"unit\""), std::string::npos);
    EXPECT_NE(json.find("\"total\":3"), std::string::npos);
    EXPECT_NE(json.find("\"ok\":2"), std::string::npos);
    EXPECT_NE(json.find("\"failed\":1"), std::string::npos);
    EXPECT_NE(json.find("\"key\":\"exp/one\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(json.find("quoted \\\"message\\\""), std::string::npos);
    EXPECT_NE(json.find("\"seed_lo\""), std::string::npos);
    // Balanced braces — cheap structural sanity without a parser.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(ResultSink, CsvContainsOnlySuccessfulRows)
{
    std::vector<JobSpec> specs = {fakeJob("csv/one")};
    JobSpec bad;
    bad.key = "csv/bad";
    bad.fn = [](const JobContext &) -> JobOutput {
        throw std::runtime_error("no row for me");
    };
    specs.push_back(std::move(bad));

    const ResultSink sink = SweepEngine(quietOptions(1)).run(specs);
    const std::string path = "test_exec_results.csv";
    ASSERT_TRUE(sink.writeCsv(path));
    const std::string csv = slurp(path);
    std::remove(path.c_str());

    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2)
        << "header + one ok row";
    EXPECT_NE(csv.find("csv/one"), std::string::npos);
    EXPECT_EQ(csv.find("csv/bad"), std::string::npos);
}

TEST(ResultSink, JsonKeepsEveryDigit)
{
    // Conservation makes attr.total.cycles equal mmu_busy_cycles; both
    // must read back exactly, well past 6 significant digits.
    JobSpec spec;
    spec.key = "digits/one";
    spec.fn = [](const JobContext &) {
        JobOutput out;
        out.sim.mmu_busy_cycles = 2'208'783;
        out.sim.l2_mpki = 12.3456789;
        out.metrics["attr.total.cycles"] = 2'208'783;
        return out;
    };
    const ResultSink sink = SweepEngine(quietOptions(1)).run({spec});
    const std::string path = "test_exec_digits.json";
    ASSERT_TRUE(sink.writeJson(path, "unit", 7, 1));
    const std::string json = slurp(path);
    std::remove(path.c_str());

    auto number = [&json](const std::string &field) {
        const std::size_t at = json.find("\"" + field + "\":");
        EXPECT_NE(at, std::string::npos) << field;
        return std::strtod(json.c_str() + at + field.size() + 3, nullptr);
    };
    EXPECT_EQ(number("attr.total.cycles"), 2'208'783.0);
    EXPECT_EQ(number("mmu_busy_cycles"), 2'208'783.0);
    EXPECT_EQ(number("l2_mpki"), 12.3456789);
}

/** Host seconds per phase are recorded for a real run, bounded by the
 *  job's wall clock, and shown only where wall_ms is: the
 *  non-canonical sweep JSON and toJson's host-time form. */
TEST(ResultSink, HostPhaseTimesOnlyBesideWallClock)
{
    JobSpec spec;
    spec.key = "host/one";
    spec.fn = [](const JobContext &) {
        SimParams params;
        params.warmup_accesses = 500;
        params.measure_accesses = 2000;
        params.scale_denominator = 256;
        JobOutput out;
        out.sim = runSim(makeConfig(ConfigId::NestedEcpt), params, "GUPS");
        return out;
    };
    const ResultSink sink = SweepEngine(quietOptions(1)).run({spec});
    const JobRecord &record = sink.records().at(0);
    ASSERT_EQ(record.status, JobStatus::Ok) << record.error;
    const HostPhaseTimes &t = record.out.sim.host_time;
    for (const double phase :
         {t.build_s, t.prefault_s, t.warmup_s, t.measure_s})
        EXPECT_GE(phase, 0.0);
    EXPECT_GT(t.prefault_s, 0.0);
    EXPECT_GT(t.measure_s, 0.0);
    EXPECT_LE(t.build_s + t.prefault_s + t.warmup_s + t.measure_s,
              record.wall_ms / 1000.0);

    const std::string path = "test_exec_host_time.json";
    ASSERT_TRUE(sink.writeJson(path, "unit", 7, 1, /*canonical=*/true));
    const std::string canonical = slurp(path);
    ASSERT_TRUE(sink.writeJson(path, "unit", 7, 1));
    const std::string full = slurp(path);
    std::remove(path.c_str());
    EXPECT_EQ(canonical.find("host_time"), std::string::npos);
    EXPECT_EQ(canonical.find("prefault_s"), std::string::npos);
    EXPECT_NE(full.find("\"host_time\":{\"build_s\":"), std::string::npos);
    EXPECT_EQ(toJson(record.out.sim).find("host_time"), std::string::npos);
    EXPECT_NE(toJson(record.out.sim, true).find("\"measure_s\":"),
              std::string::npos);
}

TEST(ResultSink, ToGridBridgesOkRecords)
{
    std::vector<JobSpec> specs = {fakeJob("grid/a"), fakeJob("grid/b")};
    const ResultSink sink = SweepEngine(quietOptions(2)).run(specs);
    const std::vector<SimResult> ok = sink.okResults();
    ASSERT_EQ(ok.size(), 2u);
    EXPECT_EQ(ok[0].config, "fake");
    EXPECT_EQ(ok[0].app, "grid/a");
    EXPECT_EQ(ok[1].app, "grid/b");
    EXPECT_EQ(ok[0].cycles, sink.find("grid/a")->out.sim.cycles);
}

// ------------------------------------------------------------ registry

TEST(SweepRegistry, PortedGridsAreRegistered)
{
    EXPECT_GE(sweepGrids().size(), 21u);
    for (const char *name :
         {"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "sec94",
          "sec95", "sec96", "ablation_5level", "ablation_design",
          "table1", "table2", "table3", "table4", "multicore"}) {
        const SweepGrid *grid = findSweepGrid(name);
        ASSERT_NE(grid, nullptr) << name;
        EXPECT_EQ(grid->name, name);
        EXPECT_FALSE(grid->title.empty());
    }
    EXPECT_EQ(findSweepGrid("no-such-grid"), nullptr);
}

TEST(SweepRegistry, JobKeysAreUniqueAndStable)
{
    const SimParams params;
    for (const SweepGrid &grid : sweepGrids()) {
        const auto jobs = grid.make_jobs(params);
        ASSERT_FALSE(jobs.empty()) << grid.name;
        std::set<std::string> keys;
        for (const JobSpec &spec : jobs) {
            EXPECT_TRUE(keys.insert(spec.key).second)
                << "duplicate key " << spec.key;
            EXPECT_EQ(spec.key.rfind(grid.name + "/", 0), 0u)
                << "keys are namespaced by grid: " << spec.key;
        }
        // Rebuilding the grid yields the same keys in the same order.
        const auto again = grid.make_jobs(params);
        ASSERT_EQ(again.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(again[i].key, jobs[i].key);
    }
}

TEST(SweepRegistry, SummariesSurviveFailedJobs)
{
    // Every job failed: each summary must show "(failed)" where its
    // numbers would go, never throw (necpt_sweep catches SimErrors
    // only, so a std::out_of_range would abort the process).
    const SimParams params;
    for (const SweepGrid &grid : sweepGrids()) {
        const auto jobs = grid.make_jobs(params);
        ResultSink sink(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobRecord record;
            record.key = jobs[i].key;
            record.status = JobStatus::Failed;
            record.error = "injected failure";
            sink.put(i, std::move(record));
        }
        std::vector<Table> tables;
        EXPECT_NO_THROW(tables = grid.summarize(sink, params))
            << grid.name;
        std::string text;
        for (const Table &table : tables)
            text += renderTable(table);
        EXPECT_NE(text.find("(failed)"), std::string::npos) << grid.name;
    }
}

TEST(SweepRegistry, Fig9SpeedupCellsAreCycleRatios)
{
    // Synthetic records with distinct cycle counts: every cell of the
    // speedup table is base.cycles / cell.cycles, base = Nested Radix.
    setenv("NECPT_APPS", "GUPS,BFS", 1);
    const SweepGrid &grid = *findSweepGrid("fig9");
    const SimParams params;
    const auto jobs = grid.make_jobs(params);
    ResultSink sink(jobs.size());
    std::map<std::string, std::uint64_t> cycles;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobRecord record;
        record.key = jobs[i].key;
        record.status = JobStatus::Ok;
        record.out.sim.cycles = 100'000 + 7'919 * i;
        cycles[jobs[i].key] = record.out.sim.cycles;
        sink.put(i, std::move(record));
    }
    const std::vector<Table> tables = grid.summarize(sink, params);
    unsetenv("NECPT_APPS");

    ASSERT_FALSE(tables.empty());
    const Table &speedups = tables[0];
    ASSERT_EQ(speedups.columns.size(), 3u); // GUPS, BFS, GeoMean
    ASSERT_FALSE(speedups.rows.empty());
    for (const Row &row : speedups.rows) {
        ASSERT_EQ(row.cells.size(), 3u) << row.labels[0];
        std::vector<double> ratios;
        for (std::size_t a = 0; a < 2; ++a) {
            const std::string app = speedups.columns[a].header;
            const double expected =
                static_cast<double>(cycles.at("fig9/Nested Radix/" + app))
                / static_cast<double>(
                    cycles.at("fig9/" + row.labels[0] + "/" + app));
            EXPECT_EQ(std::get<double>(row.cells[a]), expected)
                << row.labels[0] << " " << app;
            ratios.push_back(expected);
        }
        EXPECT_DOUBLE_EQ(std::get<double>(row.cells[2]),
                         std::sqrt(ratios[0] * ratios[1]))
            << row.labels[0];
    }
}

TEST(SweepSeeds, ConfigurationsShareTheSweepSeed)
{
    // fig10 holds two THP configurations, whose per-64MB huge-page
    // coverage is drawn from the seed: a job seeded from its key would
    // diverge from the common-seed run below.
    setenv("NECPT_APPS", "GUPS", 1);
    SimParams params;
    params.warmup_accesses = 1'000;
    params.measure_accesses = 5'000;
    params.scale_denominator = 256;
    params.seed = 7;
    SweepOptions options = quietOptions(4);
    options.base_seed = params.seed;
    const ResultSink sink =
        SweepEngine(options).run(findSweepGrid("fig10")->make_jobs(params));
    unsetenv("NECPT_APPS");

    ASSERT_EQ(sink.size(), 4u);
    for (const ConfigId id :
         {ConfigId::NestedRadix, ConfigId::NestedRadixThp,
          ConfigId::NestedEcpt, ConfigId::NestedEcptThp}) {
        const ExperimentConfig config = makeConfig(id);
        const JobRecord *r = sink.find("fig10/" + config.name + "/GUPS");
        ASSERT_NE(r, nullptr) << config.name;
        ASSERT_EQ(r->status, JobStatus::Ok) << r->error;
        EXPECT_EQ(r->out.sim.cycles, runSim(config, params, "GUPS").cycles)
            << config.name;
    }
}

} // namespace necpt
