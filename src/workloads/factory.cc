#include "workloads/workload.hh"

#include "common/error.hh"
#include "common/log.hh"
#include "workloads/graph.hh"
#include "workloads/others.hh"

namespace necpt
{

namespace
{

constexpr std::uint64_t GB = 1ULL << 30;
constexpr std::uint64_t MB = 1ULL << 20;

/** Table-4 footprints in MB. */
struct AppEntry
{
    const char *name;
    std::uint64_t paper_mb;
};

constexpr AppEntry app_table[] = {
    {"BC", 17715},      // 17.3 GB
    {"BFS", 9523},      // 9.3 GB
    {"CC", 9523},       // 9.3 GB
    {"DC", 9523},       // 9.3 GB
    {"DFS", 9216},      // 9.0 GB
    {"GUPS", 65536},    // 64.0 GB
    {"MUMmer", 7066},   // 6.9 GB
    {"PR", 9523},       // 9.3 GB
    {"SSSP", 9523},     // 9.3 GB
    {"SysBench", 65536},// 64.0 GB
    {"TC", 12186},      // 11.9 GB
};

} // namespace

const std::vector<std::string> &
paperApplications()
{
    static const std::vector<std::string> apps = {
        "BC", "BFS", "CC", "DC", "DFS", "GUPS",
        "MUMmer", "PR", "SSSP", "SysBench", "TC",
    };
    return apps;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t scale_denominator,
             std::uint64_t seed)
{
    if (scale_denominator < 1)
        throw ConfigError("scale denominator must be at least 1, got 0");
    std::uint64_t paper_bytes = 0;
    for (const AppEntry &entry : app_table)
        if (name == entry.name)
            paper_bytes = entry.paper_mb * MB;
    if (paper_bytes == 0)
        throw ConfigError(strfmt("unknown workload '%s'", name.c_str()));

    // Keep every scaled footprint large enough that the *translation*
    // working set (roughly footprint/256: one table line per 8 pages)
    // still exceeds the per-core cache hierarchy several times over,
    // as it does at paper scale — the regime the evaluation studies.
    std::uint64_t bytes = paper_bytes / scale_denominator;
    constexpr std::uint64_t floor_bytes = 2560 * MB;
    if (bytes < floor_bytes)
        bytes = floor_bytes;
    (void)GB;

    std::uint64_t sm = seed ^ std::hash<std::string>{}(name);
    const std::uint64_t wl_seed = splitmix64(sm);

    if (name == "GUPS")
        return std::make_unique<GupsWorkload>(bytes, paper_bytes,
                                              wl_seed);
    if (name == "MUMmer")
        return std::make_unique<MummerWorkload>(bytes, paper_bytes,
                                                wl_seed);
    if (name == "SysBench")
        return std::make_unique<SysbenchWorkload>(bytes, paper_bytes,
                                                  wl_seed);

    GraphKernel kernel = GraphKernel::PR;
    if (name == "BC") kernel = GraphKernel::BC;
    else if (name == "BFS") kernel = GraphKernel::BFS;
    else if (name == "CC") kernel = GraphKernel::CC;
    else if (name == "DC") kernel = GraphKernel::DC;
    else if (name == "DFS") kernel = GraphKernel::DFS;
    else if (name == "PR") kernel = GraphKernel::PR;
    else if (name == "SSSP") kernel = GraphKernel::SSSP;
    else if (name == "TC") kernel = GraphKernel::TC;

    return std::make_unique<GraphWorkload>(kernel, bytes, paper_bytes,
                                           wl_seed);
}

} // namespace necpt
