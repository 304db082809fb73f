/**
 * @file
 * Simulator throughput harness: wall-clock simulated accesses per
 * second through the event-driven timing core. Three points span the
 * engine's regimes — single-core serialized (the byte-identical
 * legacy path), 8-core serialized (event interleaving + shared
 * resources), and 8-core with overlapped walks (walk machines, the
 * memory pump, completion events), with and without walk coalescing.
 * Emits BENCH_throughput.json so CI can archive the numbers; a
 * regression in the hot loop shows up in the artifact series long
 * before it shows up in review.
 *
 * Run length follows the NECPT_WARMUP / NECPT_MEASURE / NECPT_SCALE
 * environment knobs (sim/experiment.hh).
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cycle_ledger.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

using namespace necpt;

namespace
{

struct Sample
{
    std::string name;
    int cores;
    int mlp;
    bool walk_coalescing;
    std::uint64_t accesses;
    double seconds;
    double rate;
    std::uint64_t sim_cycles;
    /** Walk-cycle attribution profile (attr.<cause>.share), so the
     *  baseline diff can say *where* a regression moved cycles. */
    std::array<double, num_attr_causes> attr_share{};
};

Sample
measure(const std::string &name, int cores, int mlp,
        bool coalesce = false)
{
    SimParams params = paramsFromEnv();
    params.cores = cores;
    params.max_outstanding_walks = mlp;
    params.walk_coalescing = coalesce;
    ExperimentConfig config = makeConfig(ConfigId::NestedEcpt);
    if (cores > 1)
        configureSharedResources(config, cores);

    const auto begin = std::chrono::steady_clock::now();
    const SimResult result = runSim(config, params, "GUPS");
    const auto end = std::chrono::steady_clock::now();

    Sample s;
    s.name = name;
    s.cores = cores;
    s.mlp = mlp;
    s.walk_coalescing = coalesce;
    // Total simulated workload accesses driven through the engine
    // (every core runs the full warm-up + measured trace).
    s.accesses = (params.warmup_accesses + params.measure_accesses)
        * static_cast<std::uint64_t>(cores);
    s.seconds = std::chrono::duration<double>(end - begin).count();
    s.rate = s.seconds > 0 ? static_cast<double>(s.accesses) / s.seconds
                           : 0.0;
    s.sim_cycles = result.cycles;
    for (int c = 0; c < num_attr_causes; ++c) {
        const std::string key =
            std::string("attr.")
            + attrCauseName(static_cast<AttrCause>(c)) + ".share";
        s.attr_share[static_cast<std::size_t>(c)] =
            result.metrics.at(key);
    }
    std::printf("%-28s %10llu accesses  %8.3f s  %12.0f acc/s  "
                "(sim cycles %llu)\n",
                name.c_str(), (unsigned long long)s.accesses, s.seconds,
                s.rate, (unsigned long long)s.sim_cycles);
    return s;
}

/**
 * Deterministic host-speed reference: fixed-work serial integer
 * mixing (SplitMix64 finalizer), no memory traffic, so the rate
 * tracks raw host CPU speed and nothing about the simulator. The
 * baseline diff divides current by baseline host_ref to rescale
 * absolute rate floors — a slow dev laptop then isn't failed for not
 * being the CI runner (tools/check_bench.py --min-rate).
 */
double
hostReferenceRate()
{
    constexpr std::uint64_t iters = std::uint64_t(1) << 26;
    double best = 0.0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    // Best-of-3: the max filters scheduler preemption out of the
    // calibration the same way it distorts the measured rows least.
    for (int rep = 0; rep < 3; ++rep) {
        const auto begin = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < iters; ++i) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            x ^= z >> 31; // serial dependence: keeps the loop scalar
        }
        const auto end = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(end - begin).count();
        if (s > 0)
            best = best > iters / s ? best : iters / s;
    }
    // The checksum escaping here is what stops the compiler from
    // folding the whole loop away.
    std::printf("%-28s %12.0f mixes/s  (checksum %016llx)\n",
                "host reference kernel", best, (unsigned long long)x);
    return best;
}

} // namespace

int
main()
{
    const double host_ref = hostReferenceRate();
    printBanner("Timing-core throughput (wall clock)",
                "engineering harness; not a paper figure");

    std::vector<Sample> samples;
    samples.push_back(measure("1-core GUPS", 1, 1));
    samples.push_back(measure("8-core GUPS", 8, 1));
    // The headline mlp=4 row runs with walk coalescing on — the
    // modeled MMU merges same-page misses MSHR-style, so overlapped
    // walks no longer re-simulate duplicate walk work (ROADMAP item
    // 1). The no-coalesce row keeps the old configuration visible so
    // the cost of duplicate walks stays in the artifact series.
    samples.push_back(measure("8-core GUPS mlp=4", 8, 4, true));
    samples.push_back(
        measure("8-core GUPS mlp=4 no-coalesce", 8, 4, false));

    const char *path = "BENCH_throughput.json";
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"sim_throughput\",\n"
                      "  \"unit\": \"accesses_per_sec\",\n"
                      "  \"host_ref\": %.1f,\n"
                      "  \"results\": [\n",
                 host_ref);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"cores\": %d, "
                     "\"max_outstanding_walks\": %d, "
                     "\"walk_coalescing\": %s, "
                     "\"accesses\": %llu, \"seconds\": %.6f, "
                     "\"accesses_per_sec\": %.1f, \"attr\": {",
                     s.name.c_str(), s.cores, s.mlp,
                     s.walk_coalescing ? "true" : "false",
                     (unsigned long long)s.accesses, s.seconds, s.rate);
        for (int c = 0; c < num_attr_causes; ++c)
            std::fprintf(out, "%s\"%s\": %.4f", c ? ", " : "",
                         attrCauseName(static_cast<AttrCause>(c)),
                         s.attr_share[static_cast<std::size_t>(c)]);
        std::fprintf(out, "}}%s\n",
                     i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote %s\n", path);
    return 0;
}
