/**
 * @file
 * necpt-run — the standalone command-line driver.
 *
 *   necpt-run --list
 *   necpt-run --config "Nested ECPTs THP" --app GUPS
 *   necpt-run --config "Nested Radix" --app BFS --measure 2000000 \
 *             --scale 8 --cores 2 --csv out.csv --json
 *   necpt-run --config "Nested ECPTs" --trace capture.bin
 *
 * Runs one (configuration, application) simulation with explicit
 * parameters and prints a human summary, optionally appending a CSV
 * row or emitting JSON for tooling.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cycle_ledger.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/parse.hh"
#include "common/trace_events.hh"
#include "sim/critical_path.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/timeseries.hh"
#include "workloads/trace.hh"

using namespace necpt;

namespace
{

const std::vector<ConfigId> &
allConfigIds()
{
    static const std::vector<ConfigId> ids = {
        ConfigId::Radix,           ConfigId::RadixThp,
        ConfigId::Ecpt,            ConfigId::EcptThp,
        ConfigId::NestedRadix,     ConfigId::NestedRadixThp,
        ConfigId::NestedEcpt,      ConfigId::NestedEcptThp,
        ConfigId::NestedHybrid,    ConfigId::NestedHybridThp,
        ConfigId::PlainNestedEcpt, ConfigId::PlainNestedEcptThp,
        ConfigId::AgilePagingIdeal, ConfigId::AgilePagingIdealThp,
        ConfigId::PomTlb,          ConfigId::PomTlbThp,
        ConfigId::FlatNested,      ConfigId::FlatNestedThp,
        ConfigId::ShadowPaging,    ConfigId::ShadowPagingThp,
        ConfigId::NestedHpt,
    };
    return ids;
}

/**
 * The trace events one sampled walk of @p kind records, rounded up
 * from the most any of the design's configurations averaged per walk
 * (`--trace-walks=16`, 2k warm-up and 20k measured accesses, GUPS,
 * BFS, MUMmer and SysBench): Plain Nested ECPTs 44, Nested ECPTs 30,
 * native ECPTs 10, Nested Hybrid 7, Nested Radix 5 (4 or 5 levels),
 * native Radix and POM-TLB 3, and 1 (the walk span) for the rest.
 * Most are per-line mem.req spans and per-way probe instants.
 */
std::uint64_t
traceEventsPerWalk(WalkerKind kind)
{
    switch (kind) {
      case WalkerKind::NestedEcpt:
        return 48;
      case WalkerKind::NativeEcpt:
        return 12;
      case WalkerKind::NestedHybrid:
        return 8;
      case WalkerKind::NestedRadix:
        return 6;
      case WalkerKind::NativeRadix:
      case WalkerKind::PomTlb:
        return 4;
      case WalkerKind::AgilePagingIdeal:
      case WalkerKind::FlatNested:
      case WalkerKind::ShadowPaging:
      case WalkerKind::NestedHpt:
        return 2;
    }
    return 48;
}

/**
 * The sample interval of a bare `--trace-walks`: the smallest N for
 * which every access walking (cores x (warm-up + measured accesses)),
 * at traceEventsPerWalk() events per sampled walk, fills at most half
 * of the trace ring. The other half is left to the events outside
 * walks (cuckoo kicks and resizes, shootdown rounds, faults).
 */
std::uint64_t
autoTraceInterval(WalkerKind kind, const SimParams &params)
{
    const std::uint64_t walks = static_cast<std::uint64_t>(params.cores)
        * (params.warmup_accesses + params.measure_accesses);
    const std::uint64_t budget = TraceBuffer::default_capacity / 2;
    return std::max<std::uint64_t>(
        1, (walks * traceEventsPerWalk(kind) + budget - 1) / budget);
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s --config NAME --app NAME [options]\n"
        "       %s --list\n\n"
        "options:\n"
        "  --list              list configurations and applications\n"
        "  --config NAME       configuration (see --list)\n"
        "  --app NAME          application (see --list)\n"
        "  --trace FILE        replay a recorded trace instead of an app\n"
        "  --record FILE       record the app's stream to FILE and exit\n"
        "  --measure N         measured accesses   (default 1000000)\n"
        "  --warmup N          warm-up accesses    (default 200000)\n"
        "  --scale N           footprint divisor   (default 16)\n"
        "  --cores N           simulated cores     (default 1)\n"
        "  --mlp N             max in-flight walks per core\n"
        "                      (default 1 = serialized walks)\n"
        "  --coalesce          walk-MSHR same-page coalescing: misses\n"
        "                      for a page whose walk is in flight park\n"
        "                      on it instead of walking (needs --mlp>1)\n"
        "  --seed N            simulation seed\n"
        "  --churn SPEC        arm translation churn + shootdowns:\n"
        "                      migrate:PERIOD[:PAGES], balloon:...,\n"
        "                      thp:..., protect:..., mode:sw|hw,\n"
        "                      batch:N, all  (comma-separated)\n"
        "  --radix-levels N    4 or 5 (LA57)\n"
        "  --csv FILE          append a CSV row (header if new file)\n"
        "  --json              print the result as JSON, with the\n"
        "                      host seconds of each phase (host_time),\n"
        "                      as the only output on stdout (the text\n"
        "                      summary goes to stderr)\n"
        "  --stats-json FILE   dump the unified metrics registry\n"
        "                      (every component counter) as JSON\n"
        "  --trace-walks[=N]   record walk-level trace events, every\n"
        "                      Nth walk. Without =N, N is the least\n"
        "                      that keeps the sampled walks within\n"
        "                      half of the 65,536-event trace ring:\n"
        "                      cores x (warm-up + measured accesses)\n"
        "                      x the design's events per walk (48 for\n"
        "                      nested ECPTs) / 32,768, printed on\n"
        "                      stderr\n"
        "  --trace-out FILE    Chrome trace-event output file\n"
        "                      (default necpt_trace.json)\n"
        "  --sample-metrics=N  snapshot every registry scalar each N\n"
        "                      simulated cycles (necpt-timeseries-v1)\n"
        "  --timeseries-out FILE\n"
        "                      time-series output file\n"
        "                      (default necpt_timeseries.json)\n"
        "  --critical-path[=K] record event dependencies and print the\n"
        "                      per-core critical-path report (top-K\n"
        "                      stalls, default 5)\n"
        "  --quiet             suppress warn/info log output\n",
        prog, prog);
}

int
run(int argc, char **argv)
{
    std::string config_name, app_name, trace_path, record_path,
        csv_path, stats_json_path, trace_out_path, timeseries_out_path;
    bool list = false, json = false;
    std::uint64_t trace_walks = 0; //!< sample interval; 0 = tracing off
    bool trace_walks_auto = false;  //!< bare --trace-walks: pick N
                                    //!< (an explicit =N wins)
    std::uint64_t sample_metrics = 0; //!< cycles between snapshots
    int critical_path_k = 0;          //!< top-K stalls; 0 = off
    SimParams params = paramsFromEnv();
    std::optional<int> radix_levels;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        auto u64 = [&](const std::string &text) {
            return parseNumber<std::uint64_t>(arg, text);
        };
        auto i32 = [&](const std::string &text) {
            return parseNumber<int>(arg, text);
        };
        // Sample intervals: 0 would turn the output off, so it is an
        // error, not a default.
        auto positive = [](const std::string &flag,
                           const std::string &text) {
            return parseNumber<std::uint64_t>(flag, text, 1);
        };
        if (arg == "--list") list = true;
        else if (arg == "--config") config_name = value();
        else if (arg == "--app") app_name = value();
        else if (arg == "--trace") trace_path = value();
        else if (arg == "--record") record_path = value();
        else if (arg == "--measure")
            params.measure_accesses = u64(value());
        else if (arg == "--warmup")
            params.warmup_accesses = u64(value());
        else if (arg == "--scale")
            params.scale_denominator = u64(value());
        else if (arg == "--cores") params.cores = i32(value());
        else if (arg == "--mlp")
            params.max_outstanding_walks = i32(value());
        else if (arg == "--coalesce") params.walk_coalescing = true;
        else if (arg == "--seed") params.seed = u64(value());
        else if (arg == "--churn")
            params.churn = parseChurnSpec(value());
        else if (arg == "--radix-levels")
            radix_levels = i32(value());
        else if (arg == "--csv") csv_path = value();
        else if (arg == "--json") json = true;
        else if (arg == "--stats-json") stats_json_path = value();
        else if (arg == "--trace-walks") trace_walks_auto = true;
        else if (arg.rfind("--trace-walks=", 0) == 0)
            trace_walks = positive("--trace-walks", arg.substr(14));
        else if (arg == "--trace-out") trace_out_path = value();
        else if (arg == "--sample-metrics")
            sample_metrics = positive(arg, value());
        else if (arg.rfind("--sample-metrics=", 0) == 0)
            sample_metrics = positive("--sample-metrics", arg.substr(17));
        else if (arg == "--timeseries-out") timeseries_out_path = value();
        else if (arg == "--critical-path") critical_path_k = 5;
        else if (arg.rfind("--critical-path=", 0) == 0)
            critical_path_k = parseNumber<int>("--critical-path",
                                               arg.substr(16), 1);
        else if (arg == "--quiet") setLogLevel(LogLevel::Quiet);
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    if (list) {
        std::printf("configurations:\n");
        for (const ConfigId id : allConfigIds())
            std::printf("  %s\n", configName(id).c_str());
        std::printf("applications:\n");
        for (const auto &app : paperApplications())
            std::printf("  %s\n", app.c_str());
        return 0;
    }

    if (!record_path.empty()) {
        if (app_name.empty())
            fatal("--record requires --app");
        SystemConfig scfg;
        scfg.guest_kind = PtKind::Radix;
        scfg.host_kind = PtKind::Radix;
        NestedSystem sys(scfg);
        auto workload = makeWorkload(app_name,
                                     params.scale_denominator);
        if (!recordTrace(*workload, sys, params.measure_accesses,
                         record_path))
            fatal("failed to write trace '%s'", record_path.c_str());
        std::printf("recorded %llu accesses of %s to %s\n",
                    (unsigned long long)params.measure_accesses,
                    app_name.c_str(), record_path.c_str());
        return 0;
    }

    if (config_name.empty() || (app_name.empty() && trace_path.empty())) {
        usage(argv[0]);
        return 1;
    }

    ExperimentConfig config;
    bool found = false;
    for (const ConfigId id : allConfigIds()) {
        if (configName(id) == config_name) {
            config = makeConfig(id);
            found = true;
            break;
        }
    }
    if (!found)
        fatal("unknown configuration '%s' (see --list)",
              config_name.c_str());
    if (radix_levels)
        config.system.radix_levels = *radix_levels;
    // The cores share the L3 and DRAM channels the way the grids and
    // benches size them.
    configureSharedResources(config, params.cores);

    if (trace_walks_auto && !trace_walks) {
        trace_walks = autoTraceInterval(config.walker, params);
        std::fprintf(stderr, "trace: sampling every %llu walk(s)\n",
                     (unsigned long long)trace_walks);
    }

    // The tracer must outlive the Simulator (components keep a raw
    // pointer to it until they are torn down).
    std::unique_ptr<TraceBuffer> tracer;
    if (trace_walks) {
        tracer = std::make_unique<TraceBuffer>(
            TraceBuffer::default_capacity, trace_walks);
        params.tracer = tracer.get();
    }
    std::unique_ptr<TimeSeriesBuffer> timeseries;
    if (sample_metrics) {
        timeseries = std::make_unique<TimeSeriesBuffer>(sample_metrics);
        params.timeseries = timeseries.get();
    }
    std::unique_ptr<CriticalPathRecorder> critical_path;
    if (critical_path_k) {
        critical_path = std::make_unique<CriticalPathRecorder>(
            params.cores, critical_path_k);
        params.critical_path = critical_path.get();
    }

    Simulator sim(config, params);
    SimResult result;
    if (!trace_path.empty()) {
        // The constructor throws a TraceError (file + byte offset) on
        // any corrupt input; main() renders it at the exit boundary.
        TraceWorkload probe(trace_path);
        const std::uint64_t footprint = probe.info().footprint_bytes;
        result = sim.runWith(
            "trace:" + trace_path,
            [&](std::uint64_t) {
                return std::make_unique<TraceWorkload>(trace_path);
            },
            footprint);
    } else {
        result = sim.run(app_name);
    }

    // With --json, stdout carries the JSON object alone, so a script
    // can parse the whole stream; the text summary moves to stderr.
    std::FILE *const text = json ? stderr : stdout;
    std::fprintf(text, "%-22s %-10s\n", result.config.c_str(),
                 result.app.c_str());
    std::fprintf(text, "  cycles            %llu\n",
                 (unsigned long long)result.cycles);
    std::fprintf(text, "  instructions      %llu  (IPC %.3f)\n",
                 (unsigned long long)result.instructions,
                 result.cycles ? static_cast<double>(result.instructions)
                         / result.cycles : 0.0);
    std::fprintf(text, "  MMU busy cycles   %llu  (%.1f/walk)\n",
                 (unsigned long long)result.mmu_busy_cycles,
                 result.walks ? static_cast<double>(
                     result.mmu_busy_cycles) / result.walks : 0.0);
    std::fprintf(text, "  walks             %llu  (L2 TLB misses %llu)\n",
                 (unsigned long long)result.walks,
                 (unsigned long long)result.l2_tlb_misses);
    std::fprintf(text, "  MMU requests      %llu  (RPKI %.1f)\n",
                 (unsigned long long)result.mmu_requests,
                 result.mmu_rpki);
    if (params.max_outstanding_walks > 1)
        std::fprintf(text, "  in-flight walks   %.2f avg, %llu peak\n",
                     result.walk_inflight_avg,
                     (unsigned long long)result.walk_inflight_max);
    if (params.walk_coalescing) {
        const auto it = result.metrics.find("walk.coalesced");
        const double merged =
            it != result.metrics.end() ? it->second : 0.0;
        std::fprintf(text, "  coalesced walks   %.0f  (%.1f%% of walks)\n",
                     merged,
                     result.walks ? 100.0 * merged
                             / static_cast<double>(result.walks)
                                  : 0.0);
    }
    if (result.step_avg[0] > 0)
        std::fprintf(text, "  step accesses     %.1f / %.1f / %.1f\n",
                     result.step_avg[0], result.step_avg[1],
                     result.step_avg[2]);
    if (result.walks) {
        // Top-3 attribution causes: where walk cycles actually went.
        struct Share { double share = 0; const char *name = nullptr; };
        std::vector<Share> shares;
        for (int c = 0; c < num_attr_causes; ++c) {
            const char *an = attrCauseName(static_cast<AttrCause>(c));
            const auto it =
                result.metrics.find("attr." + std::string(an)
                                    + ".share");
            if (it != result.metrics.end() && it->second > 0)
                shares.push_back({it->second, an});
        }
        std::sort(shares.begin(), shares.end(),
                  [](const Share &a, const Share &b) {
                      return a.share > b.share;
                  });
        if (!shares.empty()) {
            std::fprintf(text, "  walk cycles go to");
            const std::size_t top = std::min<std::size_t>(3,
                                                          shares.size());
            for (std::size_t i = 0; i < top; ++i)
                std::fprintf(text, "%s %s %.1f%%", i ? "," : "",
                             shares[i].name, 100.0 * shares[i].share);
            std::fprintf(text, "\n");
        }
    }
    if (params.churn.enabled()) {
        auto metric = [&](const char *name) {
            const auto it = result.metrics.find(name);
            return it == result.metrics.end() ? 0.0 : it->second;
        };
        std::fprintf(text, "  churn ops         %.0f  (%s)\n",
                     metric("churn.ops"),
                     churnSpecToString(params.churn).c_str());
        std::fprintf(text, "  shootdown rounds  %.0f  (%.0f invalidations, "
                     "%.0f entries dropped)\n",
                     metric("shootdown.rounds"),
                     metric("shootdown.invalidations"),
                     metric("shootdown.entries.dropped"));
        std::fprintf(text, "  round latency     %.0f cycles mean  "
                     "(%.0f walk replays)\n",
                     metric("shootdown.latency.mean"),
                     metric("shootdown.walk_replays"));
    }

    if (!csv_path.empty()) {
        std::FILE *probe = std::fopen(csv_path.c_str(), "r");
        const bool fresh = probe == nullptr;
        if (probe)
            std::fclose(probe);
        std::FILE *out = std::fopen(csv_path.c_str(), "a");
        if (!out)
            fatal("cannot open '%s'", csv_path.c_str());
        if (fresh)
            writeCsvHeader(out);
        writeCsvRow(out, result);
        std::fclose(out);
    }
    if (json)
        std::printf("%s\n", toJson(result, true).c_str());

    if (!stats_json_path.empty()) {
        MetricsRegistry registry;
        sim.exportMetrics(registry);
        if (!registry.writeJson(stats_json_path))
            fatal("cannot write '%s'", stats_json_path.c_str());
        std::fprintf(stderr, "stats JSON: %s\n",
                     stats_json_path.c_str());
    }
    if (tracer) {
        if (trace_out_path.empty())
            trace_out_path = "necpt_trace.json";
        if (!writeChromeTrace(trace_out_path, *tracer,
                              result.config + "/" + result.app))
            fatal("cannot write '%s'", trace_out_path.c_str());
        std::fprintf(stderr,
                     "trace: %s (%zu events, %llu walks sampled)\n",
                     trace_out_path.c_str(), tracer->size(),
                     (unsigned long long)tracer->walksSampled());
    }
    if (timeseries) {
        if (timeseries_out_path.empty())
            timeseries_out_path = "necpt_timeseries.json";
        const std::vector<TimeSeriesRun> runs = {
            {result.config + "/" + result.app, timeseries.get()}};
        if (!writeTimeseriesJson(timeseries_out_path, runs,
                                 timeseries->interval()))
            fatal("cannot write '%s'", timeseries_out_path.c_str());
        std::fprintf(stderr, "timeseries: %s (%zu samples of %zu "
                             "series)\n",
                     timeseries_out_path.c_str(),
                     timeseries->samples().size(),
                     timeseries->series().size());
    }
    if (critical_path)
        std::fprintf(text, "%s", critical_path->report().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The library throws typed SimErrors; the process boundary is the
    // one place that turns them into an exit code.
    try {
        return run(argc, argv);
    } catch (const SimError &e) {
        fatal("%s error: %s", e.kindName(), e.what());
    }
}
