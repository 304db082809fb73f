#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

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

void
printBanner(const std::string &what, const std::string &paper_ref)
{
    std::printf("######################################################\n");
    std::printf("# %s\n", what.c_str());
    std::printf("# Reproduces: %s\n", paper_ref.c_str());
    std::printf("######################################################\n");
}

} // namespace necpt
