/**
 * @file
 * Table-driven checks of the necpt-run and necpt_sweep command lines:
 * bad input must end in a clean, typed error and exit code 1, never an
 * abort. Also drives necpt_report over a real stats document, and
 * checks that a multi-core necpt-run simulates the machine the grids
 * simulate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <regex>
#include <string>
#include <sys/wait.h>
#include <tuple>

#include "common/metrics.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace
{

struct CliCase
{
    const char *name;
    const char *args;
    int exit_code;
    const char *stderr_has; //!< required substring of the output
    const char *tool = NECPT_RUN_PATH; //!< binary under test
    const char *env = "";              //!< VAR=value assignments, if any

    /** Print as the case name; the default byte dump would put this
     *  build's string addresses into the listed test name. */
    friend void PrintTo(const CliCase &c, std::ostream *os)
    {
        *os << c.name;
    }
};

/** Run @p tool with @p args under the extra environment @p env, its
 *  stderr redirected by @p stderr_to;
 *  @return (exit status, output: merged with stderr by default). */
std::pair<int, std::string>
runCli(const std::string &tool, const std::string &args,
       const std::string &env, const std::string &stderr_to = "2>&1")
{
    const std::string cmd =
        env + " \"" + tool + "\" " + args + " " + stderr_to;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return {-1, "popen failed"};
    std::string out;
    char buf[512];
    while (std::fgets(buf, sizeof buf, pipe))
        out += buf;
    const int status = pclose(pipe);
    // A signal (abort, crash) is reported as -1, never as an exit code.
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return {code, out};
}

/** The listed test name: the case name. */
std::string
caseName(const ::testing::TestParamInfo<CliCase> &info)
{
    return info.param.name;
}

class Cli : public ::testing::TestWithParam<CliCase>
{};

TEST_P(Cli, RejectsBadInputCleanly)
{
    const CliCase &c = GetParam();
    const auto [code, out] = runCli(c.tool, c.args, c.env);
    EXPECT_EQ(code, c.exit_code) << out;
    EXPECT_NE(out.find(c.stderr_has), std::string::npos) << out;
    EXPECT_EQ(out.find("panic"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(
    NecptRun, Cli,
    ::testing::Values(
        CliCase{"ScaleZero",
                "--config \"Nested ECPTs\" --app GUPS --scale 0",
                1, "config error: scale denominator must be at least 1"},
        CliCase{"CoresZero",
                "--config \"Nested ECPTs\" --app GUPS --cores 0",
                1, "config error: cores must be in [1, 8]"},
        CliCase{"MeasureZero",
                "--config \"Nested ECPTs\" --app GUPS --measure 0",
                1, "config error: measure accesses must be at least 1"},
        CliCase{"CoalesceAtMlpOne",
                "--config \"Nested ECPTs\" --app GUPS --mlp 1 --coalesce",
                1,
                "config error: walk coalescing needs "
                "max_outstanding_walks > 1"},
        CliCase{"RadixLevelsThreeOnRadix",
                "--config \"Nested Radix\" --app GUPS --radix-levels 3",
                1, "config error: radix levels must be 4 or 5, got 3"},
        CliCase{"RadixLevelsThreeOnEcpt",
                "--config \"Nested ECPTs\" --app GUPS --radix-levels 3",
                1, "config error: radix levels must be 4 or 5, got 3"},
        CliCase{"RadixLevelsZero",
                "--config \"Nested Radix\" --app GUPS --radix-levels 0",
                1, "config error: radix levels must be 4 or 5, got 0"},
        CliCase{"CoresNotANumber",
                "--config \"Nested ECPTs\" --app GUPS --cores abc",
                1, "config error: --cores expects a number, got 'abc'"},
        CliCase{"MeasureTrailingGarbage",
                "--config \"Nested ECPTs\" --app GUPS --measure 4x",
                1, "config error: --measure expects a number, got '4x'"},
        CliCase{"SeedOutOfRange",
                "--config \"Nested ECPTs\" --app GUPS "
                "--seed 18446744073709551616",
                1,
                "config error: --seed value '18446744073709551616' is "
                "out of range"},
        CliCase{"WarmupPlusMeasureWraps",
                "--config \"Nested ECPTs\" --app GUPS "
                "--measure 18446744073709551611 --warmup 20",
                1,
                "config error: warmup_accesses + measure_accesses "
                "overflows"},
        CliCase{"MeasureEnvNegative",
                "--config \"Nested ECPTs\" --app GUPS", 1,
                "config error: NECPT_MEASURE expects a number, got '-5'",
                NECPT_RUN_PATH, "NECPT_WARMUP=20 NECPT_MEASURE=-5"},
        CliCase{"MlpEnvZero", "--config \"Nested ECPTs\" --app GUPS", 1,
                "config error: NECPT_MLP must be in [1, 64], got '0'",
                NECPT_RUN_PATH, "NECPT_MLP=0"},
        CliCase{"ChurnPeriodNegative",
                "--config \"Nested ECPTs\" --app GUPS --churn migrate:-5",
                1,
                "config error: churn spec 'migrate:-5' expects a number, "
                "got '-5'"},
        CliCase{"CriticalPathNegative",
                "--config \"Nested ECPTs\" --app GUPS --critical-path=-1",
                1, "config error: --critical-path must be at least 1"},
        CliCase{"UnknownApp",
                "--config \"Nested ECPTs\" --app NoSuchApp",
                1, "config error: unknown workload 'NoSuchApp'"},
        CliCase{"UnknownConfig", "--config \"No Such\" --app GUPS", 1,
                "unknown configuration 'No Such'"},
        CliCase{"UnknownOption", "--no-such-flag", 1,
                "unknown option: --no-such-flag"}),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    NecptSweep, Cli,
    ::testing::Values(
        CliCase{"JobsNotANumber", "smoke --jobs abc --no-json", 1,
                "config error: --jobs expects a number, got 'abc'",
                NECPT_SWEEP_PATH},
        CliCase{"JobsZero", "smoke --jobs 0 --no-json", 1,
                "config error: --jobs must be at least 1, got '0'",
                NECPT_SWEEP_PATH},
        CliCase{"JobsNegative", "smoke --jobs -2 --no-json", 1,
                "config error: --jobs must be at least 1, got '-2'",
                NECPT_SWEEP_PATH},
        CliCase{"JobsEnvZero", "smoke --no-json", 1,
                "config error: NECPT_JOBS must be at least 1, got '0'",
                NECPT_SWEEP_PATH, "NECPT_JOBS=0"},
        CliCase{"RetriesNegative", "smoke --retries -1 --no-json", 1,
                "config error: --retries must be at least 0, got '-1'",
                NECPT_SWEEP_PATH},
        CliCase{"FaultSeedsZero",
                "smoke --faults all --fault-seeds 0 --no-json", 1,
                "config error: --fault-seeds must be at least 1, got '0'",
                NECPT_SWEEP_PATH},
        CliCase{"FaultCyclesNegative",
                "smoke --faults mem:0.5:-3 --no-json", 1,
                "config error: fault spec 'mem' cycles expects a number, "
                "got '-3'",
                NECPT_SWEEP_PATH},
        CliCase{"FaultProbNaN", "smoke --faults kicks:nan --no-json", 1,
                "config error: fault spec 'kicks' must be in [0, 1], "
                "got 'nan'",
                NECPT_SWEEP_PATH}),
    caseName);

/** `necpt-run --cores 2` gives its cores the shared L3 and DRAM of
 *  configureSharedResources, as the grids' multi-core points do: its
 *  cycles equal runSim on a config passed through it, and differ from
 *  one core's share. */
TEST(NecptRun, CoresShareTheL3AndDramLikeTheGrids)
{
    necpt::SimParams params = necpt::paramsFromEnv();
    params.cores = 2;
    params.warmup_accesses = 1000;
    params.measure_accesses = 5000;
    params.scale_denominator = 1024;
    params.seed = 7;
    const auto [code, out] = runCli(
        NECPT_RUN_PATH,
        "--config \"Nested ECPTs\" --app GUPS --cores 2 --warmup 1000 "
        "--measure 5000 --scale 1024 --seed 7 --json --quiet",
        "");
    ASSERT_EQ(code, 0) << out;
    const std::string key = "\"cycles\":";
    const std::size_t at = out.find(key);
    ASSERT_NE(at, std::string::npos) << out;
    const std::uint64_t cli_cycles = std::stoull(out.substr(at + key.size()));

    necpt::ExperimentConfig one_share =
        necpt::makeConfig(necpt::ConfigId::NestedEcpt);
    necpt::ExperimentConfig shared = one_share;
    necpt::configureSharedResources(shared, params.cores);
    EXPECT_EQ(cli_cycles, necpt::runSim(shared, params, "GUPS").cycles);
    EXPECT_NE(cli_cycles, necpt::runSim(one_share, params, "GUPS").cycles);
}

/** With --json, stdout is the JSON object and nothing else: the text
 *  summary and the --critical-path report go to stderr, so the whole
 *  stream parses. */
TEST(NecptRun, JsonIsTheWholeStdout)
{
    const auto [code, out] = runCli(
        NECPT_RUN_PATH,
        "--config \"Nested ECPTs\" --app GUPS --warmup 1 --measure 1 "
        "--scale 1024 --json --critical-path --quiet",
        "", "2>/dev/null");
    ASSERT_EQ(code, 0) << out;
    const std::string path = "test_cli_stdout.json";
    {
        std::ofstream file(path);
        file << out;
    }
    const int parsed = std::system(
        ("python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "
         + path)
            .c_str());
    std::remove(path.c_str());
    EXPECT_TRUE(WIFEXITED(parsed) && WEXITSTATUS(parsed) == 0) << out;
    EXPECT_NE(out.find("\"host_time\""), std::string::npos) << out;
}

/** A bare --trace-walks samples few enough walks that they fit the
 *  trace ring: the Nested ECPTs run that once kept 2,210 of 10,661
 *  walk spans (254,763 events dropped) now drops none, and stderr
 *  names the interval it chose. */
TEST(NecptRun, BareTraceWalksKeepsWholeWalks)
{
    const std::string path = "test_cli_trace.json";
    const auto [code, out] = runCli(
        NECPT_RUN_PATH,
        "--config \"Nested ECPTs\" --app GUPS --trace-walks --trace-out "
            + path + " --quiet",
        "NECPT_WARMUP=2000 NECPT_MEASURE=20000");
    ASSERT_EQ(code, 0) << out;
    EXPECT_TRUE(std::regex_search(
        out, std::regex("trace: sampling every [0-9]+ walk")))
        << out;
    std::ifstream in(path);
    const std::string trace((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_NE(trace.find("\"dropped_events\":0}"), std::string::npos)
        << trace.substr(trace.size() > 200 ? trace.size() - 200 : 0);
    EXPECT_NE(trace.find("\"name\":\"walk\""), std::string::npos);
}

/** Every core count the Simulator accepts (1-8) runs to exit 0. The
 *  shared L3 of N cores has 2,048 * N sets, which is not a power of
 *  two at 3, 5, 6 and 7 cores. */
class CoreCount
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(CoreCount, RunsToCompletion)
{
    const auto [config, cores] = GetParam();
    const auto [code, out] = runCli(
        NECPT_RUN_PATH,
        "--config \"" + config + "\" --app GUPS --cores "
            + std::to_string(cores)
            + " --warmup 100 --measure 1000 --scale 1024 --quiet",
        "");
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(out.find("panic"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(
    NecptRun, CoreCount,
    ::testing::Combine(::testing::Values("Nested Radix", "Nested ECPTs"),
                       ::testing::Range(1, 9)),
    [](const ::testing::TestParamInfo<CoreCount::ParamType> &param_info) {
        std::string name = std::get<0>(param_info.param);
        name.erase(name.find(' '), 1);
        return name + "_" + std::to_string(std::get<1>(param_info.param))
            + "cores";
    });

TEST(NecptReport, StatsViewReadsTheSchemaFieldNames)
{
    // A necpt-stats-v1 document holding every metric kind.
    necpt::Histogram hist(10, 4);
    hist.sample(5);
    hist.sample(25);
    necpt::RateMonitor rates(100);
    rates.record(0, true);
    rates.record(150, false);
    necpt::MetricsRegistry reg;
    reg.addCounter("walk.count", [] { return 3ULL; });
    reg.addValue("stc.hitrate", [] { return 0.5; });
    reg.addHistogram("walk.latency", &hist);
    reg.addRates("adaptive.pte.window_rates", &rates);
    const std::string stats = reg.toJson();
    ASSERT_TRUE(reg.writeJson("test_cli_stats.json"));

    const auto [code, out] = runCli(
        NECPT_REPORT_PATH,
        "--out test_cli_report.html --stats test_cli_stats.json", "");
    std::remove("test_cli_stats.json");
    ASSERT_EQ(code, 0) << out;
    std::ifstream in("test_cli_report.html");
    const std::string html((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::remove("test_cli_report.html");

    // Every field the stats view reads off a metric must be a field
    // the document carries: a misspelt one renders blank or NaN.
    const std::size_t begin = html.find("function renderStats");
    const std::size_t end = html.find("function sparkline");
    ASSERT_LT(begin, end);
    const std::string view = html.substr(begin, end - begin);
    const std::regex field(R"(\bm\.([A-Za-z_]+))");
    int fields = 0;
    for (std::sregex_iterator it(view.begin(), view.end(), field), last;
         it != last; ++it, ++fields) {
        const std::string name = (*it)[1].str();
        std::string key = "\"";
        key += name;
        key += "\":";
        EXPECT_NE(stats.find(key), std::string::npos)
            << "the stats view reads m." << name;
    }
    EXPECT_GT(fields, 0);
}

} // namespace
