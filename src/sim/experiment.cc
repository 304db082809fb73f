#include "sim/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "workloads/workload.hh"

namespace necpt
{

namespace
{

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value ? std::strtoull(value, nullptr, 10) : fallback;
}

} // namespace

SimParams
paramsFromEnv()
{
    SimParams params;
    const bool full = envU64("NECPT_FULL", 0) != 0;
    params.warmup_accesses =
        envU64("NECPT_WARMUP", full ? 800'000 : 200'000);
    params.measure_accesses =
        envU64("NECPT_MEASURE", full ? 4'000'000 : 1'000'000);
    params.scale_denominator = envU64("NECPT_SCALE", full ? 8 : 16);
    params.max_outstanding_walks = static_cast<int>(
        std::max<std::uint64_t>(1, envU64("NECPT_MLP", 1)));
    return params;
}

std::vector<std::string>
appsFromEnv()
{
    const char *value = std::getenv("NECPT_APPS");
    if (!value)
        return paperApplications();
    std::vector<std::string> apps;
    std::stringstream stream(value);
    std::string app;
    while (std::getline(stream, app, ','))
        if (!app.empty())
            apps.push_back(app);
    return apps;
}

int
jobsFromEnv()
{
    const auto hw = std::thread::hardware_concurrency();
    const std::uint64_t fallback =
        std::min<std::uint64_t>(4, hw ? hw : 1);
    const auto jobs = envU64("NECPT_JOBS", fallback);
    return static_cast<int>(std::max<std::uint64_t>(1, jobs));
}

SimParams
scaledParams(SimParams params, std::uint64_t measure_div,
             std::uint64_t warmup_div)
{
    if (measure_div > 1)
        params.measure_accesses /= measure_div;
    if (warmup_div > 1)
        params.warmup_accesses /= warmup_div;
    return params;
}

void
configureSharedResources(ExperimentConfig &config, int cores)
{
    config.memory.l3.size_bytes =
        static_cast<std::uint64_t>(cores) * 2 * 1024 * 1024;
    config.memory.dram.channels = std::max(2, cores);
}

ResultGrid
runGrid(const std::vector<ExperimentConfig> &configs,
        const std::vector<std::string> &apps, const SimParams &params)
{
    // Flatten the work list; every run is independent.
    std::vector<std::pair<const ExperimentConfig *, const std::string *>>
        work;
    for (const ExperimentConfig &config : configs)
        for (const std::string &app : apps)
            work.emplace_back(&config, &app);

    ResultGrid grid;
    std::mutex grid_mutex;
    std::atomic<std::size_t> next{0};

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= work.size())
                return;
            const auto [config, app] = work[i];
            {
                std::lock_guard<std::mutex> lock(grid_mutex);
                std::fprintf(stderr, "  [run] %-22s %-9s ...\n",
                             config->name.c_str(), app->c_str());
            }
            SimResult result = runSim(*config, params, *app);
            std::lock_guard<std::mutex> lock(grid_mutex);
            grid.add(result);
        }
    };

    const int jobs =
        std::min<int>(jobsFromEnv(), static_cast<int>(work.size()));
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        for (int j = 0; j < jobs; ++j)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return grid;
}

double
speedupOver(const ResultGrid &grid, const std::string &baseline,
            const std::string &config, const std::string &app)
{
    const auto &base = grid.at(baseline, app);
    const auto &other = grid.at(config, app);
    return static_cast<double>(base.cycles)
        / static_cast<double>(other.cycles);
}

void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printRow(const std::string &label, const std::vector<double> &values,
         int width, int precision)
{
    std::printf("%-24s", label.c_str());
    for (double v : values)
        std::printf("%*.*f", width, precision, v);
    std::printf("\n");
}

void
printColumns(const std::string &label,
             const std::vector<std::string> &columns, int width)
{
    std::printf("%-24s", label.c_str());
    for (const std::string &c : columns)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

} // namespace necpt
