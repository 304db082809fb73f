/**
 * @file
 * The registered sweep grids: every paper figure, table and section
 * experiment that runs a simulation, plus the engine's own design
 * points. Each grid's print_summary prints its tables from the
 * structured records, and prints "(failed)" wherever a run it needs
 * failed or timed out.
 */

#include "exec/registry.hh"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "coherence/churn.hh"
#include "common/error.hh"
#include "common/stats.hh"
#include "sim/config.hh"
#include "walk/nested_radix.hh"
#include "workloads/workload.hh"

namespace necpt
{

namespace
{

// ------------------------------------------------------------ tables

void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

using CellRatio =
    std::function<double(const SimResult &cell, const SimResult &base)>;

/**
 * The per-app columns plus GeoMean, then one row per configuration of
 * ratio(cell, Nested Radix cell). A configuration whose own or
 * baseline runs failed prints "(failed)".
 */
void
printRatioRows(const ResultGrid &grid,
               const std::vector<ExperimentConfig> &configs,
               const std::vector<std::string> &apps,
               const CellRatio &ratio)
{
    std::printf("%-24s", "Configuration");
    for (const std::string &app : apps)
        std::printf("%9s", app.c_str());
    std::printf("%9s\n", "GeoMean");
    for (const ExperimentConfig &cfg : configs) {
        std::printf("%-24s", cfg.name.c_str());
        if (!grid.complete(cfg.name, apps)
            || !grid.complete("Nested Radix", apps)) {
            std::printf(" (failed)\n");
            continue;
        }
        std::vector<double> row;
        for (const auto &app : apps)
            row.push_back(ratio(grid.at(cfg.name, app),
                                grid.at("Nested Radix", app)));
        row.push_back(geoMean(row));
        for (const double v : row)
            std::printf("%9.3f", v);
        std::printf("\n");
    }
}

// ------------------------------------------------------------- fig9

/** The Figure-9 configuration set: Table-1 rows plus the Advanced
 *  feature ladder (each step adds one technique to the previous). */
std::vector<ExperimentConfig>
fig9Configs()
{
    std::vector<ExperimentConfig> configs;
    for (const ConfigId id : table1Configs())
        configs.push_back(makeConfig(id));
    for (const bool thp : {false, true}) {
        NestedEcptFeatures f = NestedEcptFeatures::plain();
        configs.push_back(
            makeNestedEcptConfig(f, thp, "Plain Nested ECPTs"));
        f.stc = true;
        configs.push_back(makeNestedEcptConfig(f, thp, "Plain+STC"));
        f.step1_pte_hcwt = true;
        configs.push_back(
            makeNestedEcptConfig(f, thp, "Plain+STC+Step1"));
        f.step3_adaptive_pte = true;
        configs.push_back(
            makeNestedEcptConfig(f, thp, "Plain+STC+Step1+Step3"));
        // f.pt_4kb = true would equal the full Advanced design, which
        // is already in the Table-1 set.
    }
    return configs;
}

/** A job that runs one simulation. Every configuration runs the
 *  sweep's seed (params.seed), so configurations compare on the same
 *  random draws; only the fault draws differ per job. */
JobSpec
simJob(const std::string &key, const ExperimentConfig &config,
       const SimParams &params, const std::string &app)
{
    JobSpec spec;
    spec.key = key;
    spec.fn = [config, params, app](const JobContext &ctx) {
        SimParams p = params;
        // Fault draws are seeded per attempt so a retried job redraws
        // its injected faults; a no-fault sweep never reads this.
        p.fault_seed = ctx.faultSeed();
        p.tracer = ctx.tracer;
        p.timeseries = ctx.timeseries;
        JobOutput out;
        out.sim = runSim(config, p, app);
        // Publish the unified dotted-name scalars as this job's stats
        // columns in the sweep JSON.
        out.metrics = out.sim.metrics;
        return out;
    };
    return spec;
}

void
fig9Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const ResultGrid grid = sink.toGrid();
    if (!grid.complete("Nested Radix", apps)) {
        std::printf("\n(baseline 'Nested Radix' runs failed; "
                    "no speedups to report)\n");
        return;
    }

    // Per-application speedups (Figure 9's bars).
    printHeader("Speedup over Nested Radix (higher is better)");
    std::vector<ExperimentConfig> configs;
    for (const ExperimentConfig &cfg : fig9Configs())
        if (cfg.name != "Nested Radix")
            configs.push_back(cfg);
    printRatioRows(grid, configs, apps,
                   [](const SimResult &cell, const SimResult &base) {
                       return static_cast<double>(base.cycles)
                           / static_cast<double>(cell.cycles);
                   });

    // Technique-contribution summary (the stacked segments of Fig. 9).
    printHeader("Advanced-technique contributions (geomean speedup)");
    for (const bool thp : {false, true}) {
        const std::string suffix = thp ? " THP" : "";
        bool complete = true;
        for (const char *config :
             {"Plain Nested ECPTs", "Plain+STC", "Plain+STC+Step1",
              "Plain+STC+Step1+Step3", "Nested ECPTs"})
            complete &= grid.complete(config + suffix, apps);
        if (!complete) {
            std::printf("%-6s (failed)\n", thp ? "THP" : "4KB");
            continue;
        }
        auto gm = [&](const std::string &config) {
            std::vector<double> v;
            for (const auto &app : apps)
                v.push_back(speedupOver(grid, "Nested Radix",
                                        config + suffix, app));
            return geoMean(v);
        };
        const double plain = gm("Plain Nested ECPTs");
        const double stc = gm("Plain+STC");
        const double step1 = gm("Plain+STC+Step1");
        const double step3 = gm("Plain+STC+Step1+Step3");
        const double advanced = gm("Nested ECPTs");
        std::printf("%-6s plain %.3f | +STC %+0.1f%% | +Step1 %+0.1f%% "
                    "| +Step3 %+0.1f%% | +4KB %+0.1f%% => advanced "
                    "%.3f\n",
                    thp ? "THP" : "4KB", plain,
                    (stc / plain - 1) * 100, (step1 / stc - 1) * 100,
                    (step3 / step1 - 1) * 100,
                    (advanced / step3 - 1) * 100, advanced);
    }

    std::printf("\nPaper: Nested ECPTs 1.19x (4KB), 1.24x (THP); "
                "Plain ~1.03-1.05x; Hybrid 1.12x/1.13x.\n");
}

// ------------------------------------------------------------ fig10

/** The THP pair Figure 11 and Section 9.5 compare. */
std::vector<ExperimentConfig>
thpPairConfigs()
{
    return {makeConfig(ConfigId::NestedRadixThp),
            makeConfig(ConfigId::NestedEcptThp)};
}

/** The four nested designs Figures 10 and 13 compare. */
std::vector<ExperimentConfig>
nestedConfigs()
{
    return {makeConfig(ConfigId::NestedRadix),
            makeConfig(ConfigId::NestedRadixThp),
            makeConfig(ConfigId::NestedEcpt),
            makeConfig(ConfigId::NestedEcptThp)};
}

void
fig10Summary(const ResultSink &sink, const SimParams &)
{
    // Conservation makes the attribution total equal mmu_busy_cycles
    // exactly, so the figure reads the attr.* rollup — any missed
    // charge shifts these columns.
    printRatioRows(sink.toGrid(), nestedConfigs(), appsFromEnv(),
                   [](const SimResult &cell, const SimResult &base) {
                       return cell.metrics.at("attr.total.cycles")
                           / base.metrics.at("attr.total.cycles");
                   });
    std::printf("\nPaper: Nested ECPTs ~0.75 (4KB) and ~0.69 (THP) of "
                "Nested Radix busy cycles.\n");
}

// ------------------------------------------------------------ fig11

void
fig11Summary(const ResultSink &sink, const SimParams &)
{
    const ResultGrid grid = sink.toGrid();
    if (!grid.has("Nested Radix THP", "MUMmer")
        || !grid.has("Nested ECPTs THP", "MUMmer")) {
        std::printf("MUMmer (failed)\n");
        return;
    }
    const SimResult &radix = grid.at("Nested Radix THP", "MUMmer");
    const SimResult &ecpt = grid.at("Nested ECPTs THP", "MUMmer");

    std::printf("%-14s %14s %14s\n", "MMU cycles", "NestedRadix THP",
                "NestedECPT THP");
    const auto &h = radix.walk_latency;
    for (std::size_t bin = 0; bin + 1 < h.numBins(); ++bin) {
        const auto lo = bin * h.binWidth();
        std::printf("[%4llu,%4llu)   %13.4f %14.4f\n",
                    (unsigned long long)lo,
                    (unsigned long long)(lo + h.binWidth()),
                    radix.walk_latency.probability(bin),
                    ecpt.walk_latency.probability(bin));
    }
    std::printf("%-14s %14.4f %14.4f\n", "overflow",
                radix.walk_latency.probability(h.numBins() - 1),
                ecpt.walk_latency.probability(h.numBins() - 1));

    std::printf("\nSummary: mean %llu vs %llu cycles; "
                "p95 %llu vs %llu; max %llu vs %llu\n",
                (unsigned long long)radix.walk_latency.mean(),
                (unsigned long long)ecpt.walk_latency.mean(),
                (unsigned long long)radix.walk_latency.percentile(95),
                (unsigned long long)ecpt.walk_latency.percentile(95),
                (unsigned long long)radix.walk_latency.max(),
                (unsigned long long)ecpt.walk_latency.max());
    std::printf("Paper: radix THP exhibits a long tail of several "
                "hundred cycles; ECPT walks finish within ~4 DRAM "
                "accesses.\n");
}

// ------------------------------------------------------------ fig12

void
fig12Summary(const ResultSink &sink, const SimParams &)
{
    const ResultGrid grid = sink.toGrid();
    std::printf("%-10s %14s %14s %s\n", "App", "PTE hit rate",
                "PMD hit rate", "PTE caching");
    for (const auto &app : appsFromEnv()) {
        if (!grid.has("Nested ECPTs THP", app)) {
            std::printf("%-10s (failed)\n", app.c_str());
            continue;
        }
        // Read through the unified metric names (SimResult::metrics
        // aliases the legacy scalar fields byte-for-byte).
        const auto &m = grid.at("Nested ECPTs THP", app).metrics;
        const double pte_rate = m.at("adaptive.pte.rate");
        const double pmd_rate = m.at("adaptive.pmd.rate");
        if (m.at("cwc.hcwc_step3.pte.accesses") < 16) {
            // All of this app's measured data was huge-page backed:
            // Step 3 never reached the PTE level.
            std::printf("%-10s %14s %14.3f %s\n", app.c_str(), "n/a",
                        pmd_rate,
                        "unused (no 4KB-backed data touched)");
            continue;
        }
        const bool would_disable = pte_rate >= 0 && pte_rate < 0.5;
        std::printf("%-10s %14.3f %14.3f %s\n", app.c_str(), pte_rate,
                    pmd_rate,
                    would_disable ? "disabled (rate < 0.5)"
                                  : "enabled");
    }
    std::printf("\nThresholds: disable PTE caching below 0.5; while "
                "disabled, re-enable when PMD rate > 0.85.\n");
    std::printf("Paper: PTE rates high everywhere except GUPS and "
                "SysBench (whose PMD rates are also lower).\n");
}

// ------------------------------------------------------------ fig13

void
fig13Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const auto configs = nestedConfigs();
    const ResultGrid grid = sink.toGrid();

    const struct
    {
        const char *title;
        double SimResult::*field;
    } panels[] = {
        {"(a) MMU requests PKI (normalized to Nested Radix)",
         &SimResult::mmu_rpki},
        {"(b) L2 misses PKI (normalized)", &SimResult::l2_mpki},
        {"(c) L3 misses PKI (normalized)", &SimResult::l3_mpki},
    };
    for (const auto &panel : panels) {
        printHeader(panel.title);
        printRatioRows(grid, configs, apps,
                       [&panel](const SimResult &cell,
                                const SimResult &base_run) {
                           const double base = base_run.*panel.field;
                           return cell.*panel.field
                               / (base > 0 ? base : 1);
                       });
    }

    printHeader("MSHR occupancy during parallel walk phases "
                "(Section 9.3; sequential-walk designs issue no "
                "parallel phases, so their batch occupancy is zero "
                "by construction)");
    for (const ExperimentConfig &cfg : configs) {
        if (!grid.complete(cfg.name, apps)) {
            std::printf("%-22s (failed)\n", cfg.name.c_str());
            continue;
        }
        double avg = 0;
        std::uint64_t peak = 0;
        for (const auto &app : apps) {
            avg += grid.at(cfg.name, app).avg_mshrs;
            peak = std::max(peak, grid.at(cfg.name, app).max_mshrs);
        }
        std::printf("%-22s avg %.1f MSHRs in use, max %llu\n",
                    cfg.name.c_str(), avg / apps.size(),
                    (unsigned long long)peak);
    }
}

// ------------------------------------------------------------ fig14

/** Figure 14's Nested ECPTs THP runs. Each job checks attribution
 *  conservation: the per-step probe averages come from the same walk
 *  phases the ledger charges, so a missed or double-counted phase
 *  fails the run instead of silently skewing the breakdown. */
std::vector<JobSpec>
fig14Jobs(const SimParams &params)
{
    std::vector<JobSpec> jobs = configAppJobs(
        "fig14", {makeConfig(ConfigId::NestedEcptThp)}, appsFromEnv(),
        params);
    for (JobSpec &spec : jobs)
        spec.fn = [run = spec.fn](const JobContext &ctx) {
            JobOutput out = run(ctx);
            if (out.sim.metrics.at("attr.total.cycles")
                != static_cast<double>(out.sim.mmu_busy_cycles))
                throw InvariantViolation(
                    strfmt("fig14: attribution conservation violated "
                           "for %s", out.sim.app.c_str()));
            return out;
        };
    return jobs;
}

void
fig14Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const ResultGrid grid = sink.toGrid();
    const std::string config = "Nested ECPTs THP";
    // Host then guest walk-kind fractions, read through the unified
    // metric names (SimResult::metrics aliases the legacy scalar
    // fields byte-for-byte).
    std::vector<std::string> kinds;
    for (const char *side : {"host", "guest"})
        for (const char *kind : {"direct", "size", "partial", "complete"})
            kinds.push_back(std::string("walk.kind.") + side + "." + kind
                            + ".frac");
    auto printKinds = [](const std::string &label,
                         const std::vector<double> &v) {
        std::printf("%-10s | %8.3f %8.3f %8.3f %8.3f "
                    "| %8.3f %8.3f %8.3f %8.3f\n",
                    label.c_str(), v[0], v[1], v[2], v[3], v[4], v[5],
                    v[6], v[7]);
    };

    std::printf("%-10s | %-35s | %-35s\n", "", "host walks",
                "guest walks");
    std::printf("%-10s | %8s %8s %8s %8s | %8s %8s %8s %8s\n", "App",
                "direct", "size", "partial", "complete", "direct",
                "size", "partial", "complete");
    for (const auto &app : apps) {
        if (!grid.has(config, app)) {
            std::printf("%-10s | (failed)\n", app.c_str());
            continue;
        }
        std::vector<double> v;
        for (const std::string &kind : kinds)
            v.push_back(grid.at(config, app).metrics.at(kind));
        printKinds(app, v);
    }
    if (!grid.complete(config, apps)) {
        std::printf("%-10s | (failed)\n", "Average");
        return;
    }
    // Every figure below is a mean over all apps.
    auto mean = [&](const std::string &metric) {
        double sum = 0;
        for (const auto &app : apps)
            sum += grid.at(config, app).metrics.at(metric) / apps.size();
        return sum;
    };
    std::vector<double> avg;
    for (const std::string &kind : kinds)
        avg.push_back(mean(kind));
    printKinds("Average", avg);

    printHeader("Average parallel accesses per nested-ECPT step "
                "(Section 9.4; paper: 2.8 / 2.8 / 1.6 with THP)");
    std::printf("Step 1: %.1f   Step 2: %.1f   Step 3: %.1f\n",
                mean("walk.step1.avg_probes"),
                mean("walk.step2.avg_probes"),
                mean("walk.step3.avg_probes"));

    printHeader("MMU cache hit rates (Section 9.4)");
    std::printf("STC %.2f (paper 0.99) | gCWC PUD %.2f (0.99) PMD %.2f "
                "(0.86) | hCWC PUD %.2f (0.99) PMD %.2f (0.80) "
                "PTE-step1 %.2f (0.99) PTE-step3 %.2f (0.67)\n",
                mean("stc.hitrate"), mean("cwc.gcwc.pud.hitrate"),
                mean("cwc.gcwc.pmd.hitrate"),
                mean("cwc.hcwc_step3.pud.hitrate"),
                mean("cwc.hcwc_step3.pmd.hitrate"),
                mean("cwc.hcwc_step1.pte.hitrate"),
                mean("cwc.hcwc_step3.pte.hitrate"));
}

// ------------------------------------------------------------ sec94

/** Nested ECPTs THP with 4, 8, 10 and 16 STC entries. */
std::vector<ExperimentConfig>
sec94Configs()
{
    std::vector<ExperimentConfig> configs;
    for (const std::size_t entries : {4, 8, 10, 16}) {
        NestedEcptFeatures features = NestedEcptFeatures::advanced();
        features.stc_entries = entries;
        configs.push_back(makeNestedEcptConfig(
            features, true,
            "Nested ECPTs STC" + std::to_string(entries)));
    }
    return configs;
}

void
sec94Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const ResultGrid grid = sink.toGrid();
    std::printf("%-12s", "STC entries");
    for (const auto &app : apps)
        std::printf("%9s", app.c_str());
    std::printf("%9s\n", "Mean");

    for (const ExperimentConfig &cfg : sec94Configs()) {
        const std::size_t entries = cfg.features.stc_entries;
        if (!grid.complete(cfg.name, apps)) {
            std::printf("%-12zu (failed)\n", entries);
            continue;
        }
        std::printf("%-12zu", entries);
        double mean = 0;
        for (const auto &app : apps) {
            const double rate = grid.at(cfg.name, app).stc_hit_rate;
            std::printf("%9.3f", rate);
            mean += rate / apps.size();
        }
        std::printf("%9.3f\n", mean);
    }
    std::printf("\nPaper: ~0.99 at 10 entries, ~0.90 at 8, ~0.50 at 4."
                "\n");
}

// ------------------------------------------------------------ sec95

void
sec95Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const ResultGrid grid = sink.toGrid();
    for (const ExperimentConfig &cfg : thpPairConfigs()) {
        printHeader(cfg.name);
        std::printf("%-10s %12s %12s %12s %12s\n", "App", "PTE bytes",
                    "guest structs", "host structs", "total");
        double mb = 1.0 / (1 << 20);
        double avg_pte = 0, avg_total = 0, avg_guest = 0, avg_host = 0;
        for (const auto &app : apps) {
            if (!grid.has(cfg.name, app)) {
                std::printf("%-10s (failed)\n", app.c_str());
                continue;
            }
            const SimResult &r = grid.at(cfg.name, app);
            const double total = static_cast<double>(
                r.guest_structure_bytes + r.host_structure_bytes);
            std::printf("%-10s %10.1fMB %10.1fMB %10.1fMB %10.1fMB\n",
                        app.c_str(), r.pte_bytes_total * mb,
                        r.guest_structure_bytes * mb,
                        r.host_structure_bytes * mb, total * mb);
            avg_pte += r.pte_bytes_total * mb / apps.size();
            avg_guest += r.guest_structure_bytes * mb / apps.size();
            avg_host += r.host_structure_bytes * mb / apps.size();
            avg_total += total * mb / apps.size();
        }
        if (!grid.complete(cfg.name, apps)) {
            std::printf("%-10s (failed)\n", "Average");
            continue;
        }
        std::printf("%-10s %10.1fMB %10.1fMB %10.1fMB %10.1fMB\n",
                    "Average", avg_pte, avg_guest, avg_host, avg_total);
    }
    std::printf("\nPaper (full-scale): 60MB PTEs; 84MB Nested Radix "
                "(28 guest + 56 host) vs 97MB Nested ECPTs (36 guest + "
                "61 host).\n");
}

// ------------------------------------------------------------ sec96

/** Nested ECPTs and the Section-9.6 baselines, 4KB and THP, plus the
 *  Section-2.2 classic nested HPTs (4KB only: single HPTs cannot
 *  express multiple page sizes). */
std::vector<ExperimentConfig>
sec96Configs()
{
    std::vector<ExperimentConfig> configs;
    for (const ConfigId id :
         {ConfigId::NestedEcpt, ConfigId::NestedEcptThp,
          ConfigId::AgilePagingIdeal, ConfigId::AgilePagingIdealThp,
          ConfigId::PomTlb, ConfigId::PomTlbThp, ConfigId::FlatNested,
          ConfigId::FlatNestedThp, ConfigId::ShadowPaging,
          ConfigId::ShadowPagingThp, ConfigId::NestedHpt})
        configs.push_back(makeConfig(id));
    return configs;
}

/** One "vs <baseline>" line: Nested ECPTs' geomean and per-app
 *  speedups over @p baseline, or "(failed)". */
void
printSpeedupLine(const ResultGrid &grid, const std::string &label,
                 const std::string &baseline, const std::string &ecpt,
                 const std::vector<std::string> &apps)
{
    if (!grid.complete(baseline, apps) || !grid.complete(ecpt, apps)) {
        std::printf("  vs %-22s (failed)\n", label.c_str());
        return;
    }
    std::vector<double> speedups;
    for (const auto &app : apps)
        speedups.push_back(speedupOver(grid, baseline, ecpt, app));
    std::printf("  vs %-22s geomean %.3fx  (per-app:", label.c_str(),
                geoMean(speedups));
    for (std::size_t i = 0; i < apps.size(); ++i)
        std::printf(" %.2f", speedups[i]);
    std::printf(")\n");
}

void
sec96Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const ResultGrid grid = sink.toGrid();
    for (const bool thp : {false, true}) {
        const std::string suffix = thp ? " THP" : "";
        printHeader(std::string("Nested ECPTs speedup over baselines") +
                    (thp ? " (THP)" : " (4KB)"));
        for (const std::string baseline :
             {"Agile Paging (ideal)", "POM-TLB", "Flat Nested",
              "Shadow Paging"})
            printSpeedupLine(grid, baseline, baseline + suffix,
                             "Nested ECPTs" + suffix, apps);
    }
    printHeader("Nested ECPTs speedup over classic nested HPTs (4KB)");
    printSpeedupLine(grid, "Nested HPT", "Nested HPT", "Nested ECPTs",
                     apps);

    std::printf("\nPaper: +16%% vs ideal Agile Paging, +14%% vs "
                "POM-TLB, +12%%/+15%% vs flat nested tables. Shadow "
                "paging (steady state, VM exits only on first touch) "
                "and classic nested HPTs (Section 2.2 / Figure 3) are "
                "this repo's additional reference points.\n");
}

// -------------------------------------------------- ablation_5level

std::vector<std::string>
ablation5Apps()
{
    auto apps = appsFromEnv();
    if (apps.size() > 4)
        apps = {"GUPS", "BFS", "MUMmer", "SysBench"};
    return apps;
}

/** Nested Radix at 4 and 5 levels against Nested ECPTs, whose walk
 *  does not depend on tree depth (Section 1: a fifth level pushes a
 *  nested translation to 35 sequential references). Two more jobs
 *  count the references of one cold nested radix walk per depth. */
std::vector<JobSpec>
ablation5Jobs(const SimParams &params)
{
    ExperimentConfig radix5 = makeConfig(ConfigId::NestedRadix);
    radix5.name = "Nested Radix 5-level";
    radix5.system.radix_levels = 5;
    std::vector<JobSpec> jobs = configAppJobs(
        "ablation_5level",
        {makeConfig(ConfigId::NestedRadix), radix5,
         makeConfig(ConfigId::NestedEcpt)},
        ablation5Apps(), scaledParams(params, 2, 1));

    // The fifth level's cost is clearest on a *cold* walk (warm PWCs
    // absorb the single hot L5 entry at any footprint this repo can
    // simulate): count cold 2D traversal references directly.
    for (const int levels : {4, 5}) {
        JobSpec spec;
        spec.key = "ablation_5level/cold/" + std::to_string(levels);
        spec.fn = [levels](const JobContext &) {
            SystemConfig scfg;
            scfg.guest_kind = PtKind::Radix;
            scfg.host_kind = PtKind::Radix;
            scfg.radix_levels = levels;
            scfg.guest_phys_bytes = 2ULL << 30;
            scfg.host_phys_bytes = 3ULL << 30;
            NestedSystem sys(scfg);
            MemoryHierarchy mem(MemHierarchyConfig{}, 1);
            NestedRadixWalker walker(sys, mem, 0);
            const Addr base = sys.mmapRegion(1ULL << 20);
            sys.ensureResident(base);
            JobOutput out;
            out.sim.config = "Cold nested radix walk";
            out.sim.app = std::to_string(levels) + "-level";
            out.metrics["references"] =
                walker.translate(base, 0).mem_accesses;
            return out;
        };
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

void
ablation5Summary(const ResultSink &sink, const SimParams &)
{
    const ResultGrid grid = sink.toGrid();
    std::printf("%-10s %16s %16s %16s %18s\n", "App",
                "radix4 cyc/walk", "radix5 cyc/walk", "ecpt cyc/walk",
                "ECPT vs radix5");
    for (const auto &app : ablation5Apps()) {
        if (!grid.has("Nested Radix", app)
            || !grid.has("Nested Radix 5-level", app)
            || !grid.has("Nested ECPTs", app)) {
            std::printf("%-10s (failed)\n", app.c_str());
            continue;
        }
        const SimResult &r4 = grid.at("Nested Radix", app);
        const SimResult &r5 = grid.at("Nested Radix 5-level", app);
        const SimResult &re = grid.at("Nested ECPTs", app);
        std::printf("%-10s %16.0f %16.0f %16.0f %17.3fx\n",
                    app.c_str(),
                    static_cast<double>(r4.mmu_busy_cycles) / r4.walks,
                    static_cast<double>(r5.mmu_busy_cycles) / r5.walks,
                    static_cast<double>(re.mmu_busy_cycles) / re.walks,
                    static_cast<double>(r5.cycles) / re.cycles);
    }

    const JobRecord *cold4 = sink.find("ablation_5level/cold/4");
    const JobRecord *cold5 = sink.find("ablation_5level/cold/5");
    if (!cold4 || !cold5 || cold4->status != JobStatus::Ok
        || cold5->status != JobStatus::Ok)
        std::printf("\nCold nested walk references: (failed)\n");
    else
        std::printf("\nCold nested walk references: 4-level %d "
                    "(paper worst case 24), 5-level %d (paper worst "
                    "case 35)\n",
                    static_cast<int>(cold4->out.metrics.at("references")),
                    static_cast<int>(cold5->out.metrics.at("references")));
    std::printf("\nExpected shape: the fifth level lengthens the cold "
                "2D traversal while the nested-ECPT walk stays at "
                "three parallel phases; at steady state small hot L5 "
                "working sets are PWC-absorbed.\n");
}

// -------------------------------------------------- ablation_design

/** One design point: its row label and the Nested ECPTs variant it
 *  runs. Every point keeps the config name "Nested ECPTs", so jobs
 *  and rows are keyed by the label. */
struct DesignPoint
{
    std::string label;
    ExperimentConfig config;
};

struct DesignSection
{
    const char *title;
    std::vector<DesignPoint> points;
};

/** The design choices DESIGN.md calls out: (a) cuckoo ways d (the
 *  paper fixes 3), (b) the elastic resize threshold, (c) the MMU
 *  issue width (parallelism actually matters). */
std::vector<DesignSection>
designSections()
{
    std::vector<DesignSection> sections = {
        {"(a) cuckoo ways d (paper: 3)", {}},
        {"(b) elastic resize threshold (paper-style: 0.6)", {}},
        {"(c) MMU issue width (parallel probes per wave)", {}},
    };
    for (const int ways : {2, 3, 4}) {
        ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
        cfg.system.guest_ecpt.ways = ways;
        cfg.system.host_ecpt.ways = ways;
        sections[0].points.push_back({"d = " + std::to_string(ways), cfg});
    }
    for (const double thr : {0.4, 0.6, 0.8}) {
        ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
        // Smaller initial tables make the threshold actually engage at
        // bench scale; higher thresholds trade table size (and cache
        // footprint) against cuckoo-path length.
        cfg.system.guest_ecpt.initial_slots = {4096, 4096, 2048};
        cfg.system.host_ecpt.initial_slots = {4096, 4096, 2048};
        cfg.system.guest_ecpt.resize_threshold = thr;
        cfg.system.host_ecpt.resize_threshold = thr;
        sections[1].points.push_back(
            {"threshold = " + std::to_string(thr).substr(0, 3), cfg});
    }
    for (const int width : {1, 2, 4, 8}) {
        ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
        cfg.memory.mmu_issue_width = width;
        sections[2].points.push_back(
            {"width = " + std::to_string(width), cfg});
    }
    return sections;
}

std::vector<std::string>
designApps()
{
    auto apps = appsFromEnv();
    if (apps.size() > 3)
        apps = {"GUPS", "BFS", "MUMmer"};
    return apps;
}

std::vector<JobSpec>
designJobs(const SimParams &base)
{
    const SimParams params = scaledParams(base, 4, 2);
    std::vector<JobSpec> jobs;
    for (const DesignSection &section : designSections())
        for (const DesignPoint &point : section.points)
            for (const std::string &app : designApps())
                jobs.push_back(simJob("ablation_design/" + point.label
                                          + "/" + app,
                                      point.config, params, app));
    return jobs;
}

void
designSummary(const ResultSink &sink, const SimParams &)
{
    const auto apps = designApps();
    std::printf("Apps:");
    for (const auto &a : apps)
        std::printf(" %s", a.c_str());
    std::printf("\n");

    for (const DesignSection &section : designSections()) {
        printHeader(section.title);
        for (const DesignPoint &point : section.points) {
            std::vector<double> busy;
            for (const auto &app : apps) {
                const JobRecord *r = sink.find(
                    "ablation_design/" + point.label + "/" + app);
                if (!r || r->status != JobStatus::Ok)
                    break;
                busy.push_back(
                    static_cast<double>(r->out.sim.mmu_busy_cycles)
                    / static_cast<double>(r->out.sim.walks));
            }
            if (busy.size() != apps.size()) {
                std::printf("  %-28s (failed)\n", point.label.c_str());
                continue;
            }
            std::printf("  %-28s busy/walk", point.label.c_str());
            for (double b : busy)
                std::printf(" %7.0f", b);
            std::printf("\n");
        }
    }
    std::printf("\nWidth 1 serializes the probe groups — the walk "
                "degenerates toward radix-like sequential behavior, "
                "which is exactly the paper's case for judicious "
                "parallelism.\n");
}

// ----------------------------------------------------------- table4

std::vector<JobSpec>
table4Jobs(const SimParams &params)
{
    std::vector<JobSpec> jobs;
    for (const std::string &app : paperApplications()) {
        JobSpec spec;
        spec.key = "table4/" + app;
        const std::uint64_t scale = params.scale_denominator;
        spec.fn = [app, scale](const JobContext &) {
            auto wl = makeWorkload(app, scale);
            const auto info = wl->info();
            JobOutput out;
            out.sim.config = "Table 4";
            out.sim.app = info.name;
            out.labels["domain"] = info.domain;
            out.labels["suite"] = info.suite;
            out.metrics["paper_gb"] =
                static_cast<double>(info.paper_footprint_bytes)
                / (1ULL << 30);
            out.metrics["simulated_gb"] =
                static_cast<double>(info.footprint_bytes) / (1ULL << 30);
            return out;
        };
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

void
table4Summary(const ResultSink &sink, const SimParams &params)
{
    std::printf("%-10s %-16s %-10s %12s %14s\n", "Name", "Domain",
                "Suite", "Paper footpr.", "Simulated");
    for (const std::string &app : paperApplications()) {
        const JobRecord *r = sink.find("table4/" + app);
        if (!r || r->status != JobStatus::Ok) {
            std::printf("%-10s (failed: %s)\n", app.c_str(),
                        r ? r->error.c_str() : "missing");
            continue;
        }
        std::printf("%-10s %-16s %-10s %10.1f GB %11.2f GB\n",
                    r->out.sim.app.c_str(),
                    r->out.labels.at("domain").c_str(),
                    r->out.labels.at("suite").c_str(),
                    r->out.metrics.at("paper_gb"),
                    r->out.metrics.at("simulated_gb"));
    }
    std::printf("\n(scale denominator: %llu; NECPT_SCALE overrides)\n",
                (unsigned long long)params.scale_denominator);
}

// -------------------------------------------------------- multicore

const std::vector<int> &
multicoreCoreCounts()
{
    static const std::vector<int> counts = {1, 2, 4};
    return counts;
}

std::vector<std::string>
multicoreApps()
{
    auto apps = appsFromEnv();
    if (apps.size() > 2)
        apps = {"GUPS", "BFS"};
    return apps;
}

std::vector<JobSpec>
multicoreJobs(const SimParams &base)
{
    const SimParams shortened = scaledParams(base, 4, 2);
    std::vector<JobSpec> jobs;
    for (const int cores : multicoreCoreCounts()) {
        for (const std::string &app : multicoreApps()) {
            for (const ConfigId id :
                 {ConfigId::NestedRadix, ConfigId::NestedEcpt}) {
                ExperimentConfig config = makeConfig(id);
                configureSharedResources(config, cores);
                SimParams params = shortened;
                params.cores = cores;
                jobs.push_back(simJob(
                    "multicore/" + std::to_string(cores) + "c/" + app
                        + "/" + config.name,
                    config, params, app));
            }
        }
    }
    return jobs;
}

void
multicoreSummary(const ResultSink &sink, const SimParams &)
{
    std::printf("%-6s %-10s %18s %18s %10s\n", "cores", "app",
                "radix cyc/core", "ecpt cyc/core", "speedup");
    for (const int cores : multicoreCoreCounts()) {
        for (const std::string &app : multicoreApps()) {
            const std::string stem =
                "multicore/" + std::to_string(cores) + "c/" + app + "/";
            const JobRecord *r = sink.find(stem + "Nested Radix");
            const JobRecord *e = sink.find(stem + "Nested ECPTs");
            if (!r || !e || r->status != JobStatus::Ok
                || e->status != JobStatus::Ok) {
                std::printf("%-6d %-10s (failed)\n", cores,
                            app.c_str());
                continue;
            }
            std::printf(
                "%-6d %-10s %18llu %18llu %9.3fx\n", cores,
                app.c_str(),
                static_cast<unsigned long long>(r->out.sim.cycles),
                static_cast<unsigned long long>(e->out.sim.cycles),
                static_cast<double>(r->out.sim.cycles)
                    / e->out.sim.cycles);
        }
    }
    std::printf("\nReading: per-core time grows with core count "
                "(shared L3/DRAM contention). Multiprogrammed copies "
                "multiply translation-bandwidth demand, and the "
                "parallel probe groups are the more bandwidth-"
                "sensitive design — the very effect that motivates the "
                "paper's 'judiciously limiting the number of parallel "
                "memory accesses' (Abstract). The paper's own runs are "
                "one multithreaded instance (shared footprint), which "
                "stresses bandwidth far less than N independent "
                "copies.\n");
}

// ------------------------------------------------------------ smoke

/** The two headline designs on one short workload: the cheapest grid
 *  that still exercises every injection site (pools, cuckoo tables,
 *  CWTs, DRAM), sized for CI fault campaigns. */
std::vector<JobSpec>
smokeJobs(const SimParams &base)
{
    const SimParams shortened = scaledParams(base, 16, 8);
    std::vector<JobSpec> jobs;
    for (const ConfigId id :
         {ConfigId::NestedRadix, ConfigId::NestedEcpt}) {
        const ExperimentConfig config = makeConfig(id);
        jobs.push_back(simJob("smoke/" + config.name + "/GUPS", config,
                              shortened, "GUPS"));
    }
    return jobs;
}

void
smokeSummary(const ResultSink &sink, const SimParams &)
{
    std::printf("%-16s %14s %14s\n", "config", "cycles", "mmu busy");
    for (const JobRecord &r : sink.records()) {
        if (r.status != JobStatus::Ok) {
            std::printf("%-16s (%s: %s)\n", r.key.c_str(),
                        jobStatusName(r.status), r.error.c_str());
            continue;
        }
        std::printf("%-16s %14llu %14llu\n", r.out.sim.config.c_str(),
                    static_cast<unsigned long long>(r.out.sim.cycles),
                    static_cast<unsigned long long>(
                        r.out.sim.mmu_busy_cycles));
    }
}

// -------------------------------------------------------------- mlp

const std::vector<int> &
mlpDepths()
{
    static const std::vector<int> depths = {1, 2, 4};
    return depths;
}

/** Walk memory-level parallelism: the 8-core contention regime with
 *  the per-core in-flight walk cap swept across serialized (1) and
 *  overlapped (2, 4) translation machinery. */
std::vector<JobSpec>
mlpJobs(const SimParams &base)
{
    const SimParams shortened = scaledParams(base, 8, 4);
    std::vector<JobSpec> jobs;
    for (const int depth : mlpDepths()) {
        for (const ConfigId id :
             {ConfigId::NestedRadix, ConfigId::NestedEcpt}) {
            ExperimentConfig config = makeConfig(id);
            configureSharedResources(config, 8);
            SimParams params = shortened;
            params.cores = 8;
            params.max_outstanding_walks = depth;
            jobs.push_back(simJob("mlp/" + std::to_string(depth)
                                      + "w/" + config.name,
                                  config, params, "GUPS"));
        }
    }
    return jobs;
}

void
mlpSummary(const ResultSink &sink, const SimParams &)
{
    std::printf("%-6s %-16s %14s %12s %10s\n", "walks", "config",
                "cycles", "inflight", "peak");
    for (const int depth : mlpDepths()) {
        for (const char *config : {"Nested Radix", "Nested ECPTs"}) {
            const JobRecord *r = sink.find(
                "mlp/" + std::to_string(depth) + "w/" + config);
            if (!r || r->status != JobStatus::Ok) {
                std::printf("%-6d %-16s (failed)\n", depth, config);
                continue;
            }
            std::printf("%-6d %-16s %14llu %12.3f %10llu\n", depth,
                        config,
                        static_cast<unsigned long long>(
                            r->out.sim.cycles),
                        r->out.sim.walk_inflight_avg,
                        static_cast<unsigned long long>(
                            r->out.sim.walk_inflight_max));
        }
    }
    std::printf("\nReading: with the cap at 1 each L2-TLB miss "
                "serializes the core for the whole walk; raising it "
                "lets independent misses overlap, so cycles drop while "
                "the walkers' probe batches contend for the same MSHRs "
                "and DRAM banks — the trade-off behind the paper's "
                "'judiciously limiting the number of parallel memory "
                "accesses' (Abstract).\n");
}

// -------------------------------------------------------- coalesce

/** Walk-MSHR design point: the mlp sweep crossed with same-page walk
 *  coalescing on/off. Off, concurrent same-page misses each walk;
 *  on, they merge at the walker and fan out at retire. */
std::vector<JobSpec>
coalesceJobs(const SimParams &base)
{
    const SimParams shortened = scaledParams(base, 8, 4);
    std::vector<JobSpec> jobs;
    for (const int depth : mlpDepths()) {
        for (const bool coalesce : {false, true}) {
            // With one in-flight walk there is never a second
            // same-page miss to merge; skip the redundant point.
            if (coalesce && depth == 1)
                continue;
            ExperimentConfig config = makeConfig(ConfigId::NestedEcpt);
            configureSharedResources(config, 8);
            SimParams params = shortened;
            params.cores = 8;
            params.max_outstanding_walks = depth;
            params.walk_coalescing = coalesce;
            jobs.push_back(simJob(
                "coalesce/" + std::to_string(depth) + "w/"
                    + (coalesce ? "on" : "off"),
                config, params, "GUPS"));
        }
    }
    return jobs;
}

void
coalesceSummary(const ResultSink &sink, const SimParams &)
{
    std::printf("%-6s %-9s %14s %12s %12s %10s\n", "walks", "coalesce",
                "cycles", "pt walks", "merged", "inflight");
    for (const int depth : mlpDepths()) {
        for (const bool coalesce : {false, true}) {
            if (coalesce && depth == 1)
                continue;
            const JobRecord *r = sink.find(
                "coalesce/" + std::to_string(depth) + "w/"
                + (coalesce ? "on" : "off"));
            if (!r || r->status != JobStatus::Ok) {
                std::printf("%-6d %-9s (failed)\n", depth,
                            coalesce ? "on" : "off");
                continue;
            }
            const auto it = r->out.sim.metrics.find("walk.coalesced");
            const double merged =
                it != r->out.sim.metrics.end() ? it->second : 0.0;
            std::printf("%-6d %-9s %14llu %12llu %12.0f %10.3f\n",
                        depth, coalesce ? "on" : "off",
                        static_cast<unsigned long long>(
                            r->out.sim.cycles),
                        static_cast<unsigned long long>(
                            r->out.sim.walks -
                            static_cast<std::uint64_t>(merged)),
                        merged, r->out.sim.walk_inflight_avg);
        }
    }
    std::printf("\nReading: without coalescing, GUPS's "
                "read-modify-write pairs re-miss the TLB while the "
                "first walk flies, so overlapped walks do ~2x the "
                "walk work; the walk-MSHR merges those duplicates "
                "('pt walks' returns to the mlp=1 count) and the "
                "merged requests ride the primary for free — the "
                "parallelism the paper's walker assumes.\n");
}

// ------------------------------------------------------------ churn

/** One scenario per OS/hypervisor mutation stream, plus all of them
 *  together — each interleaved with the GUPS access kernel. */
const std::vector<std::pair<const char *, const char *>> &
churnScenarios()
{
    static const std::vector<std::pair<const char *, const char *>>
        scenarios = {
            {"migrate", "migrate:20000:4"},
            {"balloon", "balloon:50000:16"},
            {"thp", "thp:80000:2"},
            {"protect", "protect:40000:4"},
            {"all", "all"},
        };
    return scenarios;
}

double
metricOr(const JobRecord &r, const char *name, double fallback)
{
    const auto it = r.out.metrics.find(name);
    return it == r.out.metrics.end() ? fallback : it->second;
}

std::vector<JobSpec>
churnJobs(const SimParams &base)
{
    const SimParams shortened = scaledParams(base, 8, 4);
    std::vector<JobSpec> jobs;
    for (const auto &[label, spec] : churnScenarios()) {
        // The THP compactor needs 2MB mappings to split, so its
        // scenario (and the combined one) runs the THP variants.
        const bool thp = std::string(label) == "thp"
            || std::string(label) == "all";
        for (const ConfigId id :
             {thp ? ConfigId::NestedRadixThp : ConfigId::NestedRadix,
              thp ? ConfigId::NestedEcptThp : ConfigId::NestedEcpt}) {
            ExperimentConfig config = makeConfig(id);
            configureSharedResources(config, 4);
            SimParams params = shortened;
            params.cores = 4;
            params.churn = parseChurnSpec(spec);
            jobs.push_back(simJob("churn/" + std::string(label) + "/"
                                      + config.name,
                                  config, params, "GUPS"));
        }
    }
    return jobs;
}

void
churnSummary(const ResultSink &sink, const SimParams &)
{
    std::printf("%-9s %-16s %14s %8s %8s %9s %9s\n", "scenario",
                "config", "cycles", "ops", "rounds", "dropped",
                "replays");
    for (const auto &[label, spec] : churnScenarios()) {
        const bool thp = std::string(label) == "thp"
            || std::string(label) == "all";
        for (const char *config :
             {thp ? "Nested Radix THP" : "Nested Radix",
              thp ? "Nested ECPTs THP" : "Nested ECPTs"}) {
            const JobRecord *r = sink.find("churn/" + std::string(label)
                                           + "/" + config);
            if (!r || r->status != JobStatus::Ok) {
                std::printf("%-9s %-16s (failed)\n", label, config);
                continue;
            }
            std::printf(
                "%-9s %-16s %14llu %8.0f %8.0f %9.0f %9.0f\n", label,
                config,
                static_cast<unsigned long long>(r->out.sim.cycles),
                metricOr(*r, "churn.ops", 0),
                metricOr(*r, "shootdown.rounds", 0),
                metricOr(*r, "shootdown.entries.dropped", 0),
                metricOr(*r, "shootdown.walk_replays", 0));
        }
    }
    std::printf("\nReading: every scenario interleaves a mutation "
                "stream (migration, ballooning, THP compaction, "
                "write-protection) with the access kernel; each "
                "mutation batch triggers a TLB-shootdown round that "
                "scrubs the per-core TLBs, the walk caches, and the "
                "POM-TLB, and any walk that raced an invalidation "
                "replays against the mutated tables.\n");
}

// -------------------------------------------------------- shootdown

const std::vector<const char *> &
shootdownModes()
{
    static const std::vector<const char *> modes = {"sw", "hw"};
    return modes;
}

/** Software-IPI vs hardware-coherence head to head: the same churn
 *  stream under both protocols, 8 cores. */
std::vector<JobSpec>
shootdownJobs(const SimParams &base)
{
    const SimParams shortened = scaledParams(base, 8, 4);
    std::vector<JobSpec> jobs;
    for (const char *mode : shootdownModes()) {
        for (const ConfigId id :
             {ConfigId::NestedRadix, ConfigId::NestedEcpt}) {
            ExperimentConfig config = makeConfig(id);
            configureSharedResources(config, 8);
            SimParams params = shortened;
            params.cores = 8;
            // Denser than the churn grid's scenarios: the protocols
            // only separate when rounds are frequent enough for the
            // sw initiator stall to show up in end-to-end cycles.
            params.churn = parseChurnSpec(
                std::string("migrate:2000:8,balloon:6000:16,"
                            "protect:4000:8,batch:8,mode:") + mode);
            jobs.push_back(simJob("shootdown/" + std::string(mode) + "/"
                                      + config.name,
                                  config, params, "GUPS"));
        }
    }
    return jobs;
}

void
shootdownSummary(const ResultSink &sink, const SimParams &)
{
    printHeader("Software IPIs vs hardware translation coherence");
    std::printf("%-16s %14s %14s %8s %10s %10s\n", "config",
                "sw cycles", "hw cycles", "hw gain", "sw lat",
                "hw lat");
    for (const char *config : {"Nested Radix", "Nested ECPTs"}) {
        const JobRecord *sw =
            sink.find("shootdown/sw/" + std::string(config));
        const JobRecord *hw =
            sink.find("shootdown/hw/" + std::string(config));
        if (!sw || !hw || sw->status != JobStatus::Ok
            || hw->status != JobStatus::Ok) {
            std::printf("%-16s (failed)\n", config);
            continue;
        }
        std::printf(
            "%-16s %14llu %14llu %7.3fx %10.0f %10.0f\n", config,
            static_cast<unsigned long long>(sw->out.sim.cycles),
            static_cast<unsigned long long>(hw->out.sim.cycles),
            static_cast<double>(sw->out.sim.cycles)
                / hw->out.sim.cycles,
            metricOr(*sw, "shootdown.latency.mean", 0),
            metricOr(*hw, "shootdown.latency.mean", 0));
    }
    std::printf("\nReading: the sw protocol interrupts every core and "
                "stalls the initiator until the last ack; the hw "
                "protocol rides the coherence network to just the "
                "structures holding stale entries, so its rounds are "
                "shorter and nobody stalls — the gap is the shootdown "
                "tax the churn stream levies on each design.\n");
}

} // namespace

std::vector<JobSpec>
configAppJobs(const std::string &grid,
              const std::vector<ExperimentConfig> &configs,
              const std::vector<std::string> &apps,
              const SimParams &params)
{
    std::vector<JobSpec> jobs;
    for (const ExperimentConfig &config : configs)
        for (const std::string &app : apps)
            jobs.push_back(simJob(grid + "/" + config.name + "/" + app,
                                  config, params, app));
    return jobs;
}

const std::vector<SweepGrid> &
sweepGrids()
{
    static const std::vector<SweepGrid> grids = {
        {"fig9", "Speedup over the Nested Radix configuration",
         "Figure 9",
         [](const SimParams &p) {
             return configAppJobs("fig9", fig9Configs(), appsFromEnv(),
                                  p);
         },
         fig9Summary},
        {"fig10",
         "MMU busy cycles in nested configurations (normalized to "
         "Nested Radix)",
         "Figure 10",
         [](const SimParams &p) {
             return configAppJobs("fig10", nestedConfigs(),
                                  appsFromEnv(), p);
         },
         fig10Summary},
        {"fig11", "Histogram of nested page-walk latency (MUMmer)",
         "Figure 11",
         [](const SimParams &p) {
             return configAppJobs("fig11", thpPairConfigs(), {"MUMmer"},
                                  p);
         },
         fig11Summary},
        {"fig12", "PTE/PMD hCWT hit rates in the Step-3 hCWC",
         "Figure 12",
         [](const SimParams &p) {
             return configAppJobs("fig12",
                                  {makeConfig(ConfigId::NestedEcptThp)},
                                  appsFromEnv(), p);
         },
         fig12Summary},
        {"fig13", "MMU and cache subsystem characterization",
         "Figure 13 / Section 9.3",
         [](const SimParams &p) {
             return configAppJobs("fig13", nestedConfigs(),
                                  appsFromEnv(), p);
         },
         fig13Summary},
        {"fig14", "Breakdown of host and guest ECPT walk kinds",
         "Figure 14 / Section 9.4", fig14Jobs, fig14Summary},
        {"sec94", "Shortcut Translation Cache capacity sweep",
         "Section 9.4",
         [](const SimParams &p) {
             return configAppJobs("sec94", sec94Configs(),
                                  appsFromEnv(), p);
         },
         sec94Summary},
        {"sec95", "Memory consumption of virtual-memory structures",
         "Section 9.5",
         [](const SimParams &p) {
             return configAppJobs("sec95", thpPairConfigs(),
                                  appsFromEnv(), p);
         },
         sec95Summary},
        {"sec96", "Comparison to other advanced designs", "Section 9.6",
         [](const SimParams &p) {
             return configAppJobs("sec96", sec96Configs(),
                                  appsFromEnv(), p);
         },
         sec96Summary},
        {"ablation_5level", "5-level radix ablation (Sunny Cove / LA57)",
         "Section 1 motivation", ablation5Jobs, ablation5Summary},
        {"ablation_design", "Design-choice ablations",
         "DESIGN.md design-space notes", designJobs, designSummary},
        {"table4", "Applications evaluated", "Table 4", table4Jobs,
         table4Summary},
        {"multicore", "Multi-core (multiprogrammed) scaling",
         "Section 8 machine configuration", multicoreJobs,
         multicoreSummary},
        {"smoke", "Two-design short run (CI / fault campaigns)",
         "Section 8 machine configuration", smokeJobs, smokeSummary},
        {"mlp", "Walk memory-level parallelism (in-flight walk cap)",
         "Section 3 parallelism argument", mlpJobs, mlpSummary},
        {"coalesce",
         "Same-page walk coalescing design point (mlp x on/off)",
         "Section 3 parallelism argument", coalesceJobs,
         coalesceSummary},
        {"churn", "Translation churn scenarios (shootdown pressure)",
         "Translation-coherence subsystem", churnJobs, churnSummary},
        {"shootdown",
         "Shootdown protocol head-to-head (sw IPIs vs hw coherence)",
         "Translation-coherence subsystem", shootdownJobs,
         shootdownSummary},
    };
    return grids;
}

const SweepGrid *
findSweepGrid(const std::string &name)
{
    for (const SweepGrid &grid : sweepGrids())
        if (grid.name == name)
            return &grid;
    return nullptr;
}

ResultSink
runSweepGrid(const SweepGrid &grid, const SimParams &params,
             const SweepOptions &options)
{
    printBanner(grid.title, grid.paper_ref);
    const SweepEngine engine(options);
    ResultSink sink = engine.run(grid.make_jobs(params));
    grid.print_summary(sink, params);
    return sink;
}

} // namespace necpt
