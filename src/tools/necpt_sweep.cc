/**
 * @file
 * necpt_sweep — the unified parallel sweep runner.
 *
 *   necpt_sweep --list
 *   necpt_sweep fig9 --jobs 8
 *   necpt_sweep multicore --jobs 4 --timeout 600 --json mc.json \
 *               --csv mc.csv
 *
 * The one way to run a paper experiment: every figure and section
 * that simulates is a registered grid (`--list`). The grid fans out
 * across a fixed-size thread pool, each (config, app) job is
 * fault-isolated (exceptions and timeouts become `failed` records
 * instead of aborting the sweep), and results are emitted both as
 * the figure's human tables on stdout and as machine-readable JSON
 * (always) / CSV (on request).
 *
 * Determinism: every simulation of a sweep runs its base seed
 * (--seed), so configurations compare on the same random draws; the
 * per-job seeds derived from the base seed and the job key drive
 * fault draws only. Any --jobs value produces identical records.
 * Environment knobs: NECPT_WARMUP, NECPT_MEASURE, NECPT_SCALE,
 * NECPT_APPS, NECPT_MLP, NECPT_FULL, NECPT_JOBS (sim/experiment.hh).
 *
 * Fault campaigns (`--faults SPEC`) replicate the grid under
 * --fault-seeds independent fault streams with the spec's injection
 * sites armed; surfaced faults become typed `failed` records (the
 * campaign's product, so the exit code stays 0), retryable ones
 * consume --retries engine retries, and the JSON is written in
 * canonical form so a fixed --seed reproduces it byte-identically at
 * any --jobs value.
 */

#include <cstdio>
#include <string>

#include "common/error.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/trace_events.hh"
#include "exec/fault_campaign.hh"
#include "exec/registry.hh"

using namespace necpt;

namespace
{

void
usage(const char *prog)
{
    std::printf(
        "usage: %s GRID [options]\n"
        "       %s --list\n\n"
        "options:\n"
        "  --list          list registered sweep grids\n"
        "  --jobs N        worker threads (default: NECPT_JOBS or\n"
        "                  min(4, hardware threads))\n"
        "  --timeout SEC   per-job wall-clock budget (default: none)\n"
        "  --seed N        seed of every simulation in the sweep;\n"
        "                  fault draws use per-job seeds derived\n"
        "                  from it and the job key\n"
        "  --json FILE     results JSON (default: sweep_GRID.json,\n"
        "                  faults_GRID.json in campaign mode)\n"
        "  --no-json       skip the JSON results file\n"
        "  --csv FILE      also write successful results as CSV\n"
        "  --quiet         no per-job progress on stderr, and\n"
        "                  suppress warn/info log output\n"
        "  --trace FILE    record walk-level trace events per job and\n"
        "                  write one Chrome trace-event file (lanes in\n"
        "                  submission order)\n"
        "  --trace-walks[=N] with --trace: trace every Nth walk\n"
        "                  (default all)\n"
        "  --trace-canonical drop the engine's wall-clock spans so\n"
        "                  equal seeds compare byte-identical at any\n"
        "                  --jobs value\n"
        "  --sample-metrics=N snapshot every registry scalar each N\n"
        "                  simulated cycles per job\n"
        "  --timeseries-out FILE merged necpt-timeseries-v1 output\n"
        "                  (default: timeseries_GRID.json when\n"
        "                  sampling is on)\n"
        "  --retries N     re-run attempts that fail with a retryable\n"
        "                  error, with exponential backoff (default 0)\n"
        "  --backoff-ms N  base retry backoff (default 100)\n\n"
        "fault campaigns:\n"
        "  --faults SPEC   run the grid as a fault campaign; SPEC is\n"
        "                  comma-separated sites: pool:FRAC kicks:PROB\n"
        "                  resize:PROB mem:PROB[:CYCLES]\n"
        "                  shootdown:PROB[:CYCLES] trace, or 'all'\n"
        "                  (see EXPERIMENTS.md)\n"
        "  --fault-seeds N campaign replications (default 20)\n",
        prog, prog);
}

int
run(int argc, char **argv)
{
    std::string grid_name, json_path, csv_path, fault_spec_str,
        sweep_trace_path, timeseries_path;
    bool list = false, no_json = false, trace_canonical = false;
    std::uint64_t trace_walks = 1;
    int fault_seeds = 20;
    SweepOptions options;
    SimParams params = paramsFromEnv();
    options.base_seed = params.seed;

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
        // Counts below their minimum are errors, not defaults.
        auto atLeast = [&](int lo, const std::string &text) {
            return parseNumber<int>(arg, text, lo);
        };
        if (arg == "--list") list = true;
        else if (arg == "--jobs") options.jobs = atLeast(1, value());
        else if (arg == "--timeout")
            options.timeout_ms = u64(value()) * 1000;
        else if (arg == "--seed") {
            options.base_seed = u64(value());
            params.seed = options.base_seed;
        } else if (arg == "--json") json_path = value();
        else if (arg == "--no-json") no_json = true;
        else if (arg == "--csv") csv_path = value();
        else if (arg == "--quiet") {
            options.progress = nullptr;
            setLogLevel(LogLevel::Quiet);
        }
        else if (arg == "--trace") sweep_trace_path = value();
        else if (arg == "--trace-walks") trace_walks = 1;
        else if (arg.rfind("--trace-walks=", 0) == 0)
            trace_walks = u64(arg.substr(14));
        else if (arg == "--trace-canonical") trace_canonical = true;
        else if (arg == "--sample-metrics")
            options.sample_interval = u64(value());
        else if (arg.rfind("--sample-metrics=", 0) == 0)
            options.sample_interval = u64(arg.substr(17));
        else if (arg == "--timeseries-out") timeseries_path = value();
        else if (arg == "--faults") fault_spec_str = value();
        else if (arg == "--fault-seeds")
            fault_seeds = atLeast(1, value());
        else if (arg == "--retries")
            options.retries = atLeast(0, value());
        else if (arg == "--backoff-ms")
            options.backoff_ms = u64(value());
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && grid_name.empty()) {
            grid_name = arg;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    if (list) {
        std::printf("registered sweep grids:\n");
        for (const SweepGrid &grid : sweepGrids())
            std::printf("  %-16s %s (%s)\n", grid.name.c_str(),
                        grid.title.c_str(), grid.paper_ref.c_str());
        return 0;
    }
    if (grid_name.empty()) {
        usage(argv[0]);
        return 1;
    }

    const SweepGrid *grid = findSweepGrid(grid_name);
    if (!grid)
        fatal("unknown sweep grid '%s' (see --list)",
              grid_name.c_str());

    if (!sweep_trace_path.empty()) {
        options.trace_capacity = TraceBuffer::default_capacity;
        options.trace_sample = trace_walks;
    }

    auto writeTraceFile = [&](const ResultSink &sink) {
        if (sweep_trace_path.empty())
            return;
        if (!sink.writeTrace(sweep_trace_path, trace_canonical))
            fatal("cannot write '%s'", sweep_trace_path.c_str());
        std::fprintf(stderr, "trace JSON:   %s\n",
                     sweep_trace_path.c_str());
    };

    auto writeTimeseriesFile = [&](const ResultSink &sink) {
        if (!options.sample_interval)
            return;
        if (timeseries_path.empty())
            timeseries_path = "timeseries_" + grid->name + ".json";
        if (!sink.writeTimeseries(timeseries_path))
            fatal("cannot write '%s'", timeseries_path.c_str());
        std::fprintf(stderr, "timeseries:   %s\n",
                     timeseries_path.c_str());
    };

    if (!fault_spec_str.empty()) {
        FaultCampaignOptions copts;
        copts.spec = parseFaultSpec(fault_spec_str);
        copts.fault_seeds = fault_seeds;
        std::printf("# Fault campaign: grid '%s', spec %s, "
                    "%d fault seeds, %d retries\n",
                    grid->name.c_str(),
                    faultSpecToString(copts.spec).c_str(),
                    copts.fault_seeds, options.retries);
        const SweepEngine engine(options);
        const ResultSink sink =
            engine.run(makeFaultCampaignJobs(*grid, params, copts));
        printFaultCampaignSummary(sink, copts);
        if (!no_json) {
            if (json_path.empty())
                json_path = "faults_" + grid->name + ".json";
            if (!sink.writeJson(json_path, "faults/" + grid->name,
                                options.base_seed, engine.jobs(),
                                /*canonical=*/true))
                fatal("cannot write '%s'", json_path.c_str());
            std::fprintf(stderr, "campaign JSON: %s\n",
                         json_path.c_str());
        }
        writeTraceFile(sink);
        writeTimeseriesFile(sink);
        // Surfaced faults are the campaign's product, not a sweep
        // failure: exit 0 as long as the process survived the grid.
        return 0;
    }

    const ResultSink sink = runSweepGrid(*grid, params, options);

    if (!no_json) {
        if (json_path.empty())
            json_path = "sweep_" + grid->name + ".json";
        const SweepEngine engine(options);
        if (!sink.writeJson(json_path, grid->name, options.base_seed,
                            engine.jobs()))
            fatal("cannot write '%s'", json_path.c_str());
        std::fprintf(stderr, "results JSON: %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
        if (!sink.writeCsv(csv_path))
            fatal("cannot write '%s'", csv_path.c_str());
        std::fprintf(stderr, "results CSV:  %s\n", csv_path.c_str());
    }
    writeTraceFile(sink);
    writeTimeseriesFile(sink);

    const std::size_t failed = sink.failedCount();
    if (failed)
        std::fprintf(stderr, "%zu/%zu jobs failed\n", failed,
                     sink.size());
    return failed ? 2 : 0;
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
