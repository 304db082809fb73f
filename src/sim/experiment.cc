#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/parse.hh"
#include "workloads/workload.hh"

namespace necpt
{

namespace
{

/** Environment knob @p name as a T in [@p lo, @p hi]; @p fallback
 *  when it is unset. */
template <typename T>
T
envNumber(const char *name, T fallback,
          T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max())
{
    const char *value = std::getenv(name);
    return value ? parseNumber<T>(name, value, lo, hi) : fallback;
}

} // namespace

SimParams
paramsFromEnv()
{
    SimParams params;
    params.warmup_accesses =
        envNumber<std::uint64_t>("NECPT_WARMUP", 200'000);
    params.measure_accesses =
        envNumber<std::uint64_t>("NECPT_MEASURE", 1'000'000);
    params.scale_denominator = envNumber<std::uint64_t>("NECPT_SCALE", 16);
    params.max_outstanding_walks = envNumber<int>(
        "NECPT_MLP", 1, 1, SimParams::max_outstanding_walks_limit);
    return params;
}

std::vector<std::string>
appsFromEnv()
{
    const char *value = std::getenv("NECPT_APPS");
    if (!value)
        return paperApplications();
    std::vector<std::string> apps;
    for (const std::string &app : splitOn(value, ','))
        if (!app.empty())
            apps.push_back(app);
    return apps;
}

int
jobsFromEnv()
{
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    return envNumber<int>("NECPT_JOBS", std::min(4, hw ? hw : 1), 1);
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
