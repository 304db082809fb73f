/** @file Cycle-attribution conservation: for every walker design, at
 *  mlp 1 and 4, under churn and forced elastic resizes, the attr.*
 *  ledger bins must sum exactly (integer equality) to the MMU's busy
 *  cycles — no cycle of walk latency left uncounted, none counted
 *  twice. A forgotten charge in any walker or memory-hierarchy path
 *  shows up here as an exact-equality failure. */

#include <gtest/gtest.h>

#include <tuple>

#include "coherence/churn.hh"
#include "common/cycle_ledger.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace necpt
{

namespace
{

constexpr ConfigId all_configs[] = {
    ConfigId::Radix,
    ConfigId::RadixThp,
    ConfigId::Ecpt,
    ConfigId::EcptThp,
    ConfigId::NestedRadix,
    ConfigId::NestedRadixThp,
    ConfigId::NestedEcpt,
    ConfigId::NestedEcptThp,
    ConfigId::NestedHybrid,
    ConfigId::NestedHybridThp,
    ConfigId::PlainNestedEcpt,
    ConfigId::PlainNestedEcptThp,
    ConfigId::AgilePagingIdeal,
    ConfigId::AgilePagingIdealThp,
    ConfigId::PomTlb,
    ConfigId::PomTlbThp,
    ConfigId::FlatNested,
    ConfigId::FlatNestedThp,
    ConfigId::ShadowPaging,
    ConfigId::ShadowPagingThp,
    ConfigId::NestedHpt,
};

SimParams
tinyParams(int mlp)
{
    SimParams params;
    params.warmup_accesses = 4'000;
    params.measure_accesses = 16'000;
    params.scale_denominator = 256;
    params.max_outstanding_walks = mlp;
    return params;
}

/** Exact conservation plus internal consistency of the attr.* map. */
void
expectConserved(const SimResult &r)
{
    ASSERT_GT(r.walks, 0u) << r.config;
    const auto total_it = r.metrics.find("attr.total.cycles");
    ASSERT_NE(total_it, r.metrics.end()) << r.config;
    const auto total =
        static_cast<std::uint64_t>(total_it->second);

    // The tentpole invariant: every busy cycle is attributed.
    EXPECT_EQ(total, r.mmu_busy_cycles) << r.config;

    // The per-cause bins re-sum to the total and the shares to 1.
    std::uint64_t bin_sum = 0;
    double share_sum = 0.0;
    for (int c = 0; c < num_attr_causes; ++c) {
        const std::string an =
            std::string("attr.")
            + attrCauseName(static_cast<AttrCause>(c));
        bin_sum += static_cast<std::uint64_t>(
            r.metrics.at(an + ".cycles"));
        share_sum += r.metrics.at(an + ".share");
    }
    EXPECT_EQ(bin_sum, total) << r.config;
    if (total > 0) {
        EXPECT_NEAR(share_sum, 1.0, 1e-9) << r.config;
    }
}

using AttrParam = std::tuple<ConfigId, int>;

class AttributionMatrix : public ::testing::TestWithParam<AttrParam>
{
};

std::string
attrName(const ::testing::TestParamInfo<AttrParam> &info)
{
    std::string name = configName(std::get<0>(info.param));
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name + "_mlp" + std::to_string(std::get<1>(info.param));
}

} // namespace

TEST_P(AttributionMatrix, ConservesEveryBusyCycle)
{
    const auto [id, mlp] = GetParam();
    const SimResult r =
        runSim(makeConfig(id), tinyParams(mlp), "GUPS");
    expectConserved(r);
}

INSTANTIATE_TEST_SUITE_P(
    AllWalkers, AttributionMatrix,
    ::testing::Combine(::testing::ValuesIn(all_configs),
                       ::testing::Values(1, 4)),
    attrName);

/** Conservation must survive translation churn: shootdown rounds
 *  invalidate entries mid-run and refaults insert during measurement,
 *  exercising the walk paths that race invalidation. */
TEST(Attribution, ConservesUnderChurn)
{
    for (const int mlp : {1, 4}) {
        SimParams params = tinyParams(mlp);
        params.cores = 2;
        params.scale_denominator = 2048;
        params.churn =
            parseChurnSpec("migrate:3000:4,balloon:9000:16,batch:8");
        const SimResult r = runSim(
            makeConfig(ConfigId::NestedEcptThp), params, "GUPS");
        ASSERT_GT(r.metrics.at("shootdown.rounds"), 0.0);
        expectConserved(r);
    }
}

/** Conservation must survive elastic resizes in the measured region:
 *  undersized tables with a low threshold, plus balloon churn so
 *  inserts (and therefore resizes) keep landing mid-measurement,
 *  exercising the two-generation rehash probe paths. */
TEST(Attribution, ConservesUnderForcedResizes)
{
    for (const int mlp : {1, 4}) {
        ExperimentConfig cfg = makeConfig(ConfigId::NestedEcptThp);
        cfg.system.guest_ecpt.initial_slots = {64, 64, 64};
        cfg.system.guest_ecpt.resize_threshold = 0.3;
        cfg.system.host_ecpt.initial_slots = {64, 64, 64};
        cfg.system.host_ecpt.resize_threshold = 0.3;
        SimParams params = tinyParams(mlp);
        params.cores = 2;
        params.scale_denominator = 2048;
        params.churn =
            parseChurnSpec("migrate:3000:4,balloon:9000:16,batch:8");
        const SimResult r = runSim(cfg, params, "GUPS");
        expectConserved(r);
    }
}

} // namespace necpt
