/**
 * @file
 * Golden determinism pins for the timing core.
 *
 * Each case runs a short simulation and compares the full scalar
 * metric snapshot — every counter, rate, and histogram summary the
 * registry exports, plus the headline SimResult fields — byte for
 * byte against a checked-in golden. Any change to simulated behavior
 * (cache replacement, hashing, probe generation, event ordering)
 * shows up here as a text diff, which keeps hot-path "optimizations"
 * honest about being pure refactors.
 *
 * Nested ECPTs on GUPS is pinned at mlp=1 (serialized walks, the
 * legacy path) and mlp=4 (overlapped walk machines, the memory pump),
 * with and without churn and coalescing. Every other walker design
 * has one serialized GUPS golden, since the functional translations
 * (fullTranslate, hostTranslate) serve them all. One Nested ECPTs THP
 * golden, shaped like perfbench's churn-ecpt-thp-4c, pins the THP
 * split and collapse and the balloon and migrate paths under
 * overlapped, coalesced walks.
 *
 * After an *intentional* behavior change, regenerate with
 *   NECPT_UPDATE_GOLDEN=1 ctest -R GoldenDeterminism
 * (writes tests/golden/ in the source tree) and commit the new files
 * alongside the change that explains them.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "coherence/churn.hh"
#include "common/metrics.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace necpt
{

namespace
{

/** One pinned run. */
struct GoldenCase
{
    ConfigId config = ConfigId::NestedEcpt;
    std::string app = "GUPS";
    int cores = 2;
    int mlp = 1;
    std::string churn;
    bool coalesce = false;
};

/** Render the run's scalar state as sorted "name value" lines. */
std::string
renderSnapshot(const GoldenCase &c)
{
    SimParams params;
    params.warmup_accesses = 1000;
    params.measure_accesses = 5000;
    params.cores = c.cores;
    params.max_outstanding_walks = c.mlp;
    params.walk_coalescing = c.coalesce;
    // Shrink the footprint (Table-4 divisor) so machine build +
    // prefault stay test-sized; behavior coverage is unaffected.
    params.scale_denominator = 64;
    if (!c.churn.empty())
        params.churn = parseChurnSpec(c.churn);

    Simulator sim(makeConfig(c.config), params);
    const SimResult result = sim.run(c.app);

    MetricsRegistry reg;
    sim.exportMetrics(reg);

    std::ostringstream out;
    char value[64];
    auto emit = [&](const std::string &name, double v) {
        // %.17g round-trips doubles exactly: the golden pins the bits.
        std::snprintf(value, sizeof value, "%.17g", v);
        out << name << " " << value << "\n";
    };
    emit("result.cycles", static_cast<double>(result.cycles));
    emit("result.instructions", static_cast<double>(result.instructions));
    emit("result.walks", static_cast<double>(result.walks));
    emit("result.mmu_requests", static_cast<double>(result.mmu_requests));
    emit("result.mmu_busy_cycles",
         static_cast<double>(result.mmu_busy_cycles));
    for (const auto &[name, v] : reg.scalarSnapshot())
        emit(name, v);
    return out.str();
}

/** "Nested Radix THP" -> "nested_radix_thp". */
std::string
slug(const std::string &text)
{
    std::string out;
    for (const char ch : text) {
        const auto u = static_cast<unsigned char>(ch);
        if (std::isalnum(u))
            out += static_cast<char>(std::tolower(u));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/** Nested ECPTs on GUPS keeps its original file names; any other
 *  configuration or app names itself. */
std::string
goldenPath(const GoldenCase &c)
{
    std::string name = "determinism_";
    if (c.config != ConfigId::NestedEcpt || c.app != "GUPS")
        name += slug(configName(c.config)) + "_" + slug(c.app) + "_";
    if (!c.churn.empty())
        name += "churn_";
    if (c.coalesce)
        name += "coalesce_";
    return std::string(NECPT_SOURCE_DIR) + "/tests/golden/" + name + "mlp"
        + std::to_string(c.mlp) + ".txt";
}

void
checkAgainstGolden(const GoldenCase &c)
{
    const std::string snapshot = renderSnapshot(c);
    const std::string path = goldenPath(c);

    if (std::getenv("NECPT_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << snapshot;
        GTEST_SKIP() << "golden regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " — regenerate with NECPT_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), snapshot)
        << "simulated behavior changed; if intentional, regenerate "
           "the goldens with NECPT_UPDATE_GOLDEN=1 and commit them";
}

/** The churn mix of the Nested ECPTs goldens. */
const char *const ecpt_churn =
    "migrate:5000:8,balloon:20000:16,protect:15000:4,batch:8";

GoldenCase
nestedEcpt(int mlp, const std::string &churn = "", bool coalesce = false)
{
    GoldenCase c;
    c.mlp = mlp;
    c.churn = churn;
    c.coalesce = coalesce;
    return c;
}

/** Every walker design other than Nested ECPTs, at 4KB. */
const ConfigId other_designs[] = {
    ConfigId::Radix,           ConfigId::Ecpt,
    ConfigId::NestedRadix,     ConfigId::NestedHybrid,
    ConfigId::PlainNestedEcpt, ConfigId::AgilePagingIdeal,
    ConfigId::PomTlb,          ConfigId::FlatNested,
    ConfigId::ShadowPaging,    ConfigId::NestedHpt,
};

class DesignGolden : public ::testing::TestWithParam<ConfigId>
{
};

std::string
designName(const ::testing::TestParamInfo<ConfigId> &info)
{
    return slug(configName(info.param));
}

} // namespace

TEST(GoldenDeterminism, SerializedWalksMatchGolden)
{
    checkAgainstGolden(nestedEcpt(1));
}

TEST(GoldenDeterminism, OverlappedWalksMatchGolden)
{
    checkAgainstGolden(nestedEcpt(4));
}

// With churn armed, the coherence subsystem joins the event loop:
// source firings, shootdown rounds, and walk replays are all pinned by
// the same snapshot contract.
TEST(GoldenDeterminism, ChurnSerializedWalksMatchGolden)
{
    checkAgainstGolden(nestedEcpt(1, ecpt_churn));
}

TEST(GoldenDeterminism, ChurnOverlappedWalksMatchGolden)
{
    checkAgainstGolden(nestedEcpt(4, ecpt_churn));
}

// Walk coalescing on (the headline mlp=4 configuration): same-page
// misses merge in the walk-MSHR instead of spawning duplicate
// machines. Pinned separately from the coalescing-off goldens above,
// which must not move when the feature ships or changes — off means
// byte-identical to the legacy path.
TEST(GoldenDeterminism, CoalescedOverlappedWalksMatchGolden)
{
    checkAgainstGolden(nestedEcpt(4, "", true));
}

TEST(GoldenDeterminism, ChurnCoalescedOverlappedWalksMatchGolden)
{
    checkAgainstGolden(nestedEcpt(4, ecpt_churn, true));
}

// THP with all four churn sources, overlapped and coalesced: 2MB
// split and collapse, ballooning and migration of huge and 4KB
// backings, write-protects and software shootdown rounds.
TEST(GoldenDeterminism, ThpChurnCoalescedOverlappedWalksMatchGolden)
{
    GoldenCase c;
    c.config = ConfigId::NestedEcptThp;
    c.app = "SysBench";
    c.cores = 4;
    c.mlp = 4;
    c.churn = "migrate:4000:8,balloon:10000:16,thp:16000:2,"
              "protect:8000:4,mode:sw";
    c.coalesce = true;
    checkAgainstGolden(c);
}

// One serialized golden per walker design: every design shares the
// functional translations, so a change there is caught whichever
// walker it would move.
TEST_P(DesignGolden, SerializedWalksMatchGolden)
{
    GoldenCase c;
    c.config = GetParam();
    checkAgainstGolden(c);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignGolden,
                         ::testing::ValuesIn(other_designs), designName);

} // namespace necpt
