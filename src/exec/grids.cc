/**
 * @file
 * The registered sweep grids: every paper figure, table and section
 * experiment, plus the engine's own design points. Each grid's
 * summary turns the finished records into tables (exec/table.hh); a
 * row that needs a run which failed or timed out holds that run's
 * status, and the renderer marks the row failed or timed out.
 *
 * Most figures and sections run every configuration on every app and
 * read their cells by job key. Every other grid is a list of sections,
 * a table plus the points (jobs) that fill its rows, so its job list
 * and its summary derive from one list.
 */

#include "exec/registry.hh"

#include <algorithm>

#include "coherence/churn.hh"
#include "common/error.hh"
#include "common/stats.hh"
#include "pt/ecpt.hh"
#include "sim/cacti_lite.hh"
#include "sim/config.hh"
#include "walk/nested_radix.hh"
#include "workloads/workload.hh"

namespace necpt
{

namespace
{

using Jobs = std::vector<JobSpec>;
using Names = std::vector<std::string>;
using Configs = std::vector<ExperimentConfig>;
using Cells = std::vector<Cell>;
using CellsFn = std::function<Cells(const Outputs &)>;

// ---------------------------------------------------------- helpers

/** Key of the (config, app) job of a config x app grid. */
std::string
jobKey(const std::string &grid, const std::string &config,
       const std::string &app)
{
    return grid + "/" + config + "/" + app;
}

/** Keys of every (config, app) job of @p configs x @p apps. */
Names
jobKeys(const std::string &grid, const Names &configs, const Names &apps)
{
    Names keys;
    for (const std::string &config : configs)
        for (const std::string &app : apps)
            keys.push_back(jobKey(grid, config, app));
    return keys;
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

/** The mean of @p value over @p outputs, summed as value / n. */
double
meanOf(const Outputs &outputs,
       const std::function<double(const JobOutput &)> &value)
{
    double sum = 0;
    for (const JobOutput *out : outputs)
        sum += value(*out) / outputs.size();
    return sum;
}

/** Cells of one output: its metric, or else its label, per name. */
CellsFn
fields(const Names &names)
{
    return [names](const Outputs &o) {
        Cells cells;
        for (const std::string &name : names) {
            const auto it = o[0]->metrics.find(name);
            cells.push_back(it != o[0]->metrics.end()
                                ? Cell(it->second)
                                : Cell(o[0]->labels.at(name)));
        }
        return cells;
    };
}

/** One column per app, printed with @p precision digits. */
std::vector<Column>
appColumns(const Names &apps, int precision = 3)
{
    std::vector<Column> columns;
    for (const std::string &app : apps)
        columns.push_back({app, precision});
    return columns;
}

double
metricOr(const JobOutput &out, const char *name, double fallback)
{
    const auto it = out.metrics.find(name);
    return it == out.metrics.end() ? fallback : it->second;
}

// ------------------------------------------------- config x app grids

/** The job list of a config x app grid. */
std::function<Jobs(const SimParams &)>
configGrid(const std::string &grid, Configs (*configs)(),
           Names (*apps)() = appsFromEnv)
{
    return [=](const SimParams &params) {
        return configAppJobs(grid, configs(), apps(), params);
    };
}

/** Speedup of @p cell over @p base: the cycle ratio base / cell. */
double
speedup(const SimResult &cell, const SimResult &base)
{
    return static_cast<double>(base.cycles)
        / static_cast<double>(cell.cycles);
}

/** One row of a ratio table: @p config's runs over @p base's. */
struct RatioRow
{
    std::string label, config, base;
};

/** Rows of @p configs over the Nested Radix runs. */
std::vector<RatioRow>
overNestedRadix(const Configs &configs)
{
    std::vector<RatioRow> rows;
    for (const ExperimentConfig &cfg : configs)
        rows.push_back({cfg.name, cfg.name, "Nested Radix"});
    return rows;
}

/** A config x app ratio table: per row, ratio(config run, base run)
 *  on every app, then their GeoMean. Figures 9, 10 and 13 and
 *  Section 9.6 are all this shape. */
Table
ratioTable(const ResultSink &sink, const std::string &grid,
           const std::string &title, const std::vector<RatioRow> &rows,
           const Names &apps,
           const std::function<double(const SimResult &cell,
                                      const SimResult &base)> &ratio,
           const std::string &label_header = "Configuration")
{
    Table table{title, {label_header}, appColumns(apps)};
    table.columns.push_back({"GeoMean"});
    for (const RatioRow &row : rows)
        table.rows.push_back(rowOf(
            sink, {row.label}, jobKeys(grid, {row.config, row.base}, apps),
            [&](const Outputs &o) {
                std::vector<double> v;
                for (std::size_t i = 0; i < apps.size(); ++i)
                    v.push_back(ratio(o[i]->sim, o[apps.size() + i]->sim));
                v.push_back(geoMean(v));
                return Cells(v.begin(), v.end());
            }));
    return table;
}

// ---------------------------------------------------- section grids

/**
 * One job and the summary row it fills: a simulation of @p config on
 * @p app at @p params or, when @p fill is set, a job that runs no
 * simulation and fills its output. Points with equal labels fill one
 * row, their outputs in job order.
 */
struct Point
{
    std::string key;
    Names labels;
    ExperimentConfig config = {};
    SimParams params = {};
    std::string app = "GUPS";
    std::function<void(JobOutput &)> fill = {};
};

using Points = std::vector<Point>;

/** A table and the points whose outputs fill its rows via cells. */
struct Section
{
    Table table;
    CellsFn cells;
    Points points = {};
};

using Sections = std::vector<Section>;

/** @p id on @p cores cores sharing the L3 and DRAM. */
Point
sharedPoint(std::string key, Names labels, ConfigId id,
            const SimParams &params, int cores)
{
    Point p{std::move(key), std::move(labels), makeConfig(id), params};
    configureSharedResources(p.config, cores);
    p.params.cores = cores;
    return p;
}

/** A point whose job runs no simulation; its output names the row
 *  (sim.app) before @p fill adds the rest. */
Point
staticPoint(std::string key, Names labels,
            std::function<void(JobOutput &)> fill)
{
    Point p{std::move(key), std::move(labels)};
    p.fill = std::move(fill);
    return p;
}

/** The job list of a section grid: every point, in order. */
std::function<Jobs(const SimParams &)>
sectionJobs(Sections (*grid)(const SimParams &))
{
    return [grid](const SimParams &params) {
        Jobs jobs;
        for (const Section &section : grid(params))
            for (const Point &p : section.points) {
                if (!p.fill) {
                    jobs.push_back(simJob(p.key, p.config, p.params, p.app));
                    continue;
                }
                JobSpec spec;
                spec.key = p.key;
                spec.fn = [row = p.labels.front(),
                           fill = p.fill](const JobContext &) {
                    JobOutput out;
                    out.sim.app = row;
                    fill(out);
                    return out;
                };
                jobs.push_back(std::move(spec));
            }
        return jobs;
    };
}

/** The summary of a section grid: each table, one row per distinct
 *  labels of its points, in order of first appearance. */
std::function<std::vector<Table>(const ResultSink &, const SimParams &)>
sectionSummary(Sections (*grid)(const SimParams &))
{
    return [grid](const ResultSink &sink, const SimParams &params) {
        std::vector<Table> tables;
        for (Section &section : grid(params)) {
            std::vector<std::pair<Names, Names>> rows; // labels, keys
            for (const Point &p : section.points) {
                auto it = std::find_if(rows.begin(), rows.end(),
                                       [&](const auto &row) {
                                           return row.first == p.labels;
                                       });
                if (it == rows.end())
                    it = rows.insert(it, {p.labels, {}});
                it->second.push_back(p.key);
            }
            for (const auto &[labels, keys] : rows)
                section.table.rows.push_back(
                    rowOf(sink, labels, keys, section.cells));
            tables.push_back(std::move(section.table));
        }
        return tables;
    };
}

/** The two designs the multicore, smoke, mlp and shootdown grids run
 *  head to head. */
const ConfigId head_to_head[] = {ConfigId::NestedRadix,
                                 ConfigId::NestedEcpt};

// ---------------------------------------------- figures and sections

/** The Figure-9 configuration set: Table-1 rows plus the Advanced
 *  feature ladder (each step adds one technique to the previous). */
Configs
fig9Configs()
{
    Configs configs;
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

std::vector<Table>
fig9Summary(const ResultSink &sink, const SimParams &)
{
    // Per-application speedups (Figure 9's bars).
    Configs configs = fig9Configs();
    std::erase_if(configs, [](const ExperimentConfig &cfg) {
        return cfg.name == "Nested Radix";
    });
    const Table speedups = ratioTable(
        sink, "fig9", "Speedup over Nested Radix (higher is better)",
        overNestedRadix(configs), appsFromEnv(), speedup);

    // Technique contributions (the stacked segments of Fig. 9): each
    // ladder step's geomean speedup, from the table above, and the
    // percent it adds.
    Table steps{"Advanced-technique contributions (geomean speedup)",
                {"Pages"},
                {{"plain"}, {"+STC", 1, "%"}, {"+Step1", 1, "%"},
                 {"+Step3", 1, "%"}, {"+4KB", 1, "%"}, {"advanced"}},
                {},
                {"Paper: Nested ECPTs 1.19x (4KB), 1.24x (THP); Plain "
                 "~1.03-1.05x; Hybrid 1.12x/1.13x."}};
    for (const std::string suffix : {"", " THP"}) {
        Row row{{suffix.empty() ? "4KB" : "THP"}, {}};
        std::vector<double> gm;
        for (const std::string step :
             {"Plain Nested ECPTs", "Plain+STC", "Plain+STC+Step1",
              "Plain+STC+Step1+Step3", "Nested ECPTs"})
            for (const Row &r : speedups.rows)
                if (r.labels[0] == step + suffix) {
                    if (!std::holds_alternative<double>(r.cells.back()))
                        row.cells = {r.cells.back()};
                    else
                        gm.push_back(std::get<double>(r.cells.back()));
                }
        if (row.cells.empty()) {
            row.cells.emplace_back(gm[0]);
            for (std::size_t i = 1; i < gm.size(); ++i)
                row.cells.emplace_back((gm[i] / gm[i - 1] - 1) * 100);
            row.cells.emplace_back(gm.back());
        }
        steps.rows.push_back(row);
    }
    return {speedups, steps};
}

/** The THP pair Figure 11 and Section 9.5 compare. */
Configs
thpPairConfigs()
{
    return {makeConfig(ConfigId::NestedRadixThp),
            makeConfig(ConfigId::NestedEcptThp)};
}

/** The four nested designs Figures 10 and 13 compare. */
Configs
nestedConfigs()
{
    return {makeConfig(ConfigId::NestedRadix),
            makeConfig(ConfigId::NestedRadixThp),
            makeConfig(ConfigId::NestedEcpt),
            makeConfig(ConfigId::NestedEcptThp)};
}

std::vector<Table>
fig10Summary(const ResultSink &sink, const SimParams &)
{
    // Conservation makes the attribution total equal mmu_busy_cycles
    // exactly, so the figure reads the attr.* rollup — any missed
    // charge shifts these columns.
    Table table = ratioTable(
        sink, "fig10", "", overNestedRadix(nestedConfigs()),
        appsFromEnv(), [](const SimResult &cell, const SimResult &base) {
            return cell.metrics.at("attr.total.cycles")
                / base.metrics.at("attr.total.cycles");
        });
    table.notes = {"Paper: Nested ECPTs ~0.75 (4KB) and ~0.69 (THP) of "
                   "Nested Radix busy cycles."};
    return {table};
}

std::vector<Table>
fig11Summary(const ResultSink &sink, const SimParams &)
{
    const Names keys = jobKeys(
        "fig11", {"Nested Radix THP", "Nested ECPTs THP"}, {"MUMmer"});
    Table bins{"", {"MMU cycles"},
               {{"NestedRadix THP", 4}, {"NestedECPT THP", 4}}};
    const JobStatus status = sink.firstFailure(keys);
    if (status != JobStatus::Ok) {
        bins.rows.push_back({{"MUMmer"}, {status}});
        return {bins};
    }
    const Histogram &radix = sink.find(keys[0])->out.sim.walk_latency;
    const Histogram &ecpt = sink.find(keys[1])->out.sim.walk_latency;
    const std::size_t last = radix.numBins() - 1;
    for (std::size_t bin = 0; bin < last; ++bin) {
        const auto lo = bin * radix.binWidth();
        bins.rows.push_back(
            {{strfmt("[%4llu,%4llu)", (unsigned long long)lo,
                     (unsigned long long)(lo + radix.binWidth()))},
             {radix.probability(bin), ecpt.probability(bin)}});
    }
    bins.rows.push_back(
        {{"overflow"}, {radix.probability(last), ecpt.probability(last)}});

    // The mean is cut to whole cycles.
    Table summary{
        "",
        {"Summary (cycles)"},
        {{"NestedRadix THP", 0}, {"NestedECPT THP", 0}},
        {{{"mean"},
          {double(std::uint64_t(radix.mean())),
           double(std::uint64_t(ecpt.mean()))}},
         {{"p95"}, {double(radix.percentile(95)), double(ecpt.percentile(95))}},
         {{"max"}, {double(radix.max()), double(ecpt.max())}}},
        {"Paper: radix THP exhibits a long tail of several hundred "
         "cycles; ECPT walks finish within ~4 DRAM accesses."}};
    return {bins, summary};
}

Sections
fig12Grid(const SimParams &params)
{
    Sections sections = {
        {{"",
          {"App"},
          {{"PTE hit rate"}, {"PMD hit rate"}, {"PTE caching"}},
          {},
          {"Thresholds: disable PTE caching below 0.5; while disabled, "
           "re-enable when PMD rate > 0.85.",
           "Paper: PTE rates high everywhere except GUPS and SysBench "
           "(whose PMD rates are also lower)."}},
         [](const Outputs &o) -> Cells {
             // Read through the unified metric names (SimResult::metrics
             // aliases the legacy scalar fields byte-for-byte).
             const auto &m = o[0]->metrics;
             const double pte_rate = m.at("adaptive.pte.rate");
             const double pmd_rate = m.at("adaptive.pmd.rate");
             // All of this app's measured data was huge-page backed:
             // Step 3 never reached the PTE level.
             if (m.at("cwc.hcwc_step3.pte.accesses") < 16)
                 return {"n/a", pmd_rate,
                         "unused (no 4KB-backed data touched)"};
             const bool would_disable = pte_rate >= 0 && pte_rate < 0.5;
             return {pte_rate, pmd_rate,
                     would_disable ? "disabled (rate < 0.5)" : "enabled"};
         }}};
    for (const std::string &app : appsFromEnv())
        sections[0].points.push_back(
            {jobKey("fig12", "Nested ECPTs THP", app), {app},
             makeConfig(ConfigId::NestedEcptThp), params, app});
    return sections;
}

std::vector<Table>
fig13Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    const auto configs = nestedConfigs();
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
    std::vector<Table> tables;
    for (const auto &panel : panels)
        tables.push_back(ratioTable(
            sink, "fig13", panel.title, overNestedRadix(configs), apps,
            [&panel](const SimResult &cell, const SimResult &base_run) {
                const double base = base_run.*panel.field;
                return cell.*panel.field / (base > 0 ? base : 1);
            }));

    Table mshrs{"MSHR occupancy during parallel walk phases (Section "
                "9.3; sequential-walk designs issue no parallel phases, "
                "so their batch occupancy is zero by construction)",
                {"Configuration"},
                {{"avg MSHRs in use", 1}, {"max", 0}}};
    for (const ExperimentConfig &cfg : configs)
        mshrs.rows.push_back(rowOf(
            sink, {cfg.name}, jobKeys("fig13", {cfg.name}, apps),
            [](const Outputs &o) {
                double avg = 0;
                std::uint64_t peak = 0;
                for (const JobOutput *out : o) {
                    avg += out->sim.avg_mshrs;
                    peak = std::max(peak, out->sim.max_mshrs);
                }
                return Cells{avg / o.size(), double(peak)};
            }));
    tables.push_back(mshrs);
    return tables;
}

/** Figure 14's Nested ECPTs THP runs. Each job checks attribution
 *  conservation: the per-step probe averages come from the same walk
 *  phases the ledger charges, so a missed or double-counted phase
 *  fails the run instead of silently skewing the breakdown. */
Jobs
fig14Jobs(const SimParams &params)
{
    Jobs jobs = configAppJobs("fig14", {makeConfig(ConfigId::NestedEcptThp)},
                              appsFromEnv(), params);
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

std::vector<Table>
fig14Summary(const ResultSink &sink, const SimParams &)
{
    // Every figure reads the unified metric names (SimResult::metrics
    // aliases the legacy scalar fields byte-for-byte); averages are
    // means over all apps.
    const auto apps = appsFromEnv();
    const Names keys = jobKeys("fig14", {"Nested ECPTs THP"}, apps);
    auto means = [&](const std::string &label, const Names &metrics) {
        return rowOf(sink, {label}, keys, [&](const Outputs &o) {
            Cells cells;
            for (const std::string &metric : metrics)
                cells.emplace_back(meanOf(o, [&](const JobOutput &out) {
                    return out.metrics.at(metric);
                }));
            return cells;
        });
    };

    // Host then guest walk-kind fractions.
    Table kinds{"", {"App"}, {}};
    Names fractions;
    for (const char *side : {"host", "guest"})
        for (const char *kind : {"direct", "size", "partial", "complete"}) {
            kinds.columns.push_back({std::string(side) + " " + kind});
            fractions.push_back(std::string("walk.kind.") + side + "."
                                + kind + ".frac");
        }
    for (std::size_t i = 0; i < apps.size(); ++i)
        kinds.rows.push_back(
            rowOf(sink, {apps[i]}, {keys[i]}, fields(fractions)));
    kinds.rows.push_back(means("Average", fractions));

    Table steps{"Average parallel accesses per nested-ECPT step (Section "
                "9.4; paper: 2.8 / 2.8 / 1.6 with THP)",
                {""},
                {{"Step 1", 1}, {"Step 2", 1}, {"Step 3", 1}},
                {means("simulated",
                       {"walk.step1.avg_probes", "walk.step2.avg_probes",
                        "walk.step3.avg_probes"})}};

    const struct
    {
        const char *header, *metric;
        double paper;
    } caches[] = {
        {"STC", "stc.hitrate", 0.99},
        {"gCWC PUD", "cwc.gcwc.pud.hitrate", 0.99},
        {"gCWC PMD", "cwc.gcwc.pmd.hitrate", 0.86},
        {"hCWC PUD", "cwc.hcwc_step3.pud.hitrate", 0.99},
        {"hCWC PMD", "cwc.hcwc_step3.pmd.hitrate", 0.80},
        {"hCWC PTE-step1", "cwc.hcwc_step1.pte.hitrate", 0.99},
        {"hCWC PTE-step3", "cwc.hcwc_step3.pte.hitrate", 0.67},
    };
    Table rates{"MMU cache hit rates (Section 9.4)", {""}, {}};
    Row paper{{"paper"}, {}};
    Names metrics;
    for (const auto &cache : caches) {
        rates.columns.push_back({cache.header, 2});
        metrics.push_back(cache.metric);
        paper.cells.emplace_back(cache.paper);
    }
    rates.rows = {means("simulated", metrics), paper};
    return {kinds, steps, rates};
}

/** Nested ECPTs THP with 4, 8, 10 and 16 STC entries. */
Sections
sec94Grid(const SimParams &params)
{
    const auto apps = appsFromEnv();
    Sections sections = {
        {{"", {"STC entries"}, appColumns(apps), {},
          {"Paper: ~0.99 at 10 entries, ~0.90 at 8, ~0.50 at 4."}},
         [](const Outputs &o) {
             auto rate = [](const JobOutput &out) {
                 return out.sim.stc_hit_rate;
             };
             Cells cells;
             for (const JobOutput *out : o)
                 cells.emplace_back(rate(*out));
             cells.emplace_back(meanOf(o, rate));
             return cells;
         }}};
    sections[0].table.columns.push_back({"Mean"});
    for (const std::size_t entries : {4, 8, 10, 16}) {
        NestedEcptFeatures features = NestedEcptFeatures::advanced();
        features.stc_entries = entries;
        const ExperimentConfig cfg = makeNestedEcptConfig(
            features, true, "Nested ECPTs STC" + std::to_string(entries));
        for (const std::string &app : apps)
            sections[0].points.push_back(
                {jobKey("sec94", cfg.name, app), {std::to_string(entries)},
                 cfg, params, app});
    }
    return sections;
}

std::vector<Table>
sec95Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    auto mb = [](std::uint64_t bytes) {
        return static_cast<double>(bytes) * (1.0 / (1 << 20));
    };
    const std::function<double(const SimResult &)> sizes[] = {
        [&](const SimResult &r) { return mb(r.pte_bytes_total); },
        [&](const SimResult &r) { return mb(r.guest_structure_bytes); },
        [&](const SimResult &r) { return mb(r.host_structure_bytes); },
        [&](const SimResult &r) {
            return mb(r.guest_structure_bytes + r.host_structure_bytes);
        }};
    std::vector<Table> tables;
    for (const ExperimentConfig &cfg : thpPairConfigs()) {
        const Names keys = jobKeys("sec95", {cfg.name}, apps);
        Table table{cfg.name,
                    {"App"},
                    {{"PTE bytes", 1, "MB"}, {"guest structs", 1, "MB"},
                     {"host structs", 1, "MB"}, {"total", 1, "MB"}}};
        // Each app's sizes (a mean over one run), then their average.
        for (std::size_t i = 0; i <= apps.size(); ++i) {
            const bool average = i == apps.size();
            table.rows.push_back(rowOf(
                sink, {average ? "Average" : apps[i]},
                average ? keys : Names{keys[i]}, [&](const Outputs &o) {
                    Cells cells;
                    for (const auto &size : sizes)
                        cells.emplace_back(meanOf(o, [&](const JobOutput &out) {
                            return size(out.sim);
                        }));
                    return cells;
                }));
        }
        tables.push_back(table);
    }
    tables.back().notes = {
        "Paper (full-scale): 60MB PTEs; 84MB Nested Radix (28 guest + 56 "
        "host) vs 97MB Nested ECPTs (36 guest + 61 host)."};
    return tables;
}

/** Nested ECPTs and the Section-9.6 baselines, 4KB and THP, plus the
 *  Section-2.2 classic nested HPTs (4KB only: single HPTs cannot
 *  express multiple page sizes). */
Configs
sec96Configs()
{
    Configs configs;
    for (const ConfigId id :
         {ConfigId::NestedEcpt, ConfigId::NestedEcptThp,
          ConfigId::AgilePagingIdeal, ConfigId::AgilePagingIdealThp,
          ConfigId::PomTlb, ConfigId::PomTlbThp, ConfigId::FlatNested,
          ConfigId::FlatNestedThp, ConfigId::ShadowPaging,
          ConfigId::ShadowPagingThp, ConfigId::NestedHpt})
        configs.push_back(makeConfig(id));
    return configs;
}

std::vector<Table>
sec96Summary(const ResultSink &sink, const SimParams &)
{
    const auto apps = appsFromEnv();
    std::vector<Table> tables;
    for (const std::string suffix : {"", " THP"}) {
        std::vector<RatioRow> rows;
        for (const std::string baseline :
             {"Agile Paging (ideal)", "POM-TLB", "Flat Nested",
              "Shadow Paging"})
            rows.push_back(
                {baseline, "Nested ECPTs" + suffix, baseline + suffix});
        tables.push_back(ratioTable(
            sink, "sec96",
            "Nested ECPTs speedup over baselines ("
                + (suffix.empty() ? std::string("4KB") : "THP") + ")",
            rows, apps, speedup, "Baseline"));
    }
    tables.push_back(ratioTable(
        sink, "sec96", "Nested ECPTs speedup over classic nested HPTs (4KB)",
        {{"Nested HPT", "Nested ECPTs", "Nested HPT"}}, apps, speedup,
        "Baseline"));
    tables.back().notes = {
        "Paper: +16% vs ideal Agile Paging, +14% vs POM-TLB, +12%/+15% "
        "vs flat nested tables. Shadow paging (steady state, VM exits "
        "only on first touch) and classic nested HPTs (Section 2.2 / "
        "Figure 3) are this repo's additional reference points."};
    return tables;
}

// -------------------------------------------------------- ablations

/** Nested Radix at 4 and 5 levels against Nested ECPTs, whose walk
 *  does not depend on tree depth (Section 1: a fifth level pushes a
 *  nested translation to 35 sequential references), then the
 *  references of one cold nested radix walk per depth. */
Sections
ablation5Grid(const SimParams &base)
{
    auto apps = appsFromEnv();
    if (apps.size() > 4)
        apps = {"GUPS", "BFS", "MUMmer", "SysBench"};
    ExperimentConfig radix5 = makeConfig(ConfigId::NestedRadix);
    radix5.name = "Nested Radix 5-level";
    radix5.system.radix_levels = 5;
    Sections sections = {
        {{"",
          {"App"},
          {{"radix4 cyc/walk", 0}, {"radix5 cyc/walk", 0},
           {"ecpt cyc/walk", 0}, {"ECPT vs radix5", 3, "x"}}},
         [](const Outputs &o) {
             Cells cells;
             for (const JobOutput *out : o)
                 cells.emplace_back(double(out->sim.mmu_busy_cycles)
                                    / out->sim.walks);
             cells.emplace_back(double(o[1]->sim.cycles) / o[2]->sim.cycles);
             return cells;
         }},
        {{"Cold nested walk references",
          {"Radix depth", "paper worst case"},
          {{"references", 0}},
          {},
          {"Expected shape: the fifth level lengthens the cold 2D "
           "traversal while the nested-ECPT walk stays at three parallel "
           "phases; at steady state small hot L5 working sets are "
           "PWC-absorbed."}},
         fields({"references"})}};
    for (const ExperimentConfig &cfg :
         {makeConfig(ConfigId::NestedRadix), radix5,
          makeConfig(ConfigId::NestedEcpt)})
        for (const std::string &app : apps)
            sections[0].points.push_back(
                {jobKey("ablation_5level", cfg.name, app), {app}, cfg,
                 scaledParams(base, 2, 1), app});

    // The fifth level's cost is clearest on a *cold* walk (warm PWCs
    // absorb the single hot L5 entry at any footprint this repo can
    // simulate): count cold 2D traversal references directly.
    for (const auto &[levels, paper] : {std::pair{4, 24}, std::pair{5, 35}})
        sections[1].points.push_back(staticPoint(
            "ablation_5level/cold/" + std::to_string(levels),
            {std::to_string(levels) + "-level", std::to_string(paper)},
            [levels = levels](JobOutput &out) {
                SystemConfig scfg;
                scfg.guest_kind = PtKind::Radix;
                scfg.host_kind = PtKind::Radix;
                scfg.radix_levels = levels;
                scfg.guest_phys_bytes = 2ULL << 30;
                scfg.host_phys_bytes = 3ULL << 30;
                NestedSystem sys(scfg);
                MemoryHierarchy mem(MemHierarchyConfig{}, 1);
                NestedRadixWalker walker(sys, mem, 0);
                const Addr base_va = sys.mmapRegion(1ULL << 20);
                sys.ensureResident(base_va);
                out.sim.config = "Cold nested radix walk";
                out.metrics["references"] =
                    walker.translate(base_va, 0).mem_accesses;
            }));
    return sections;
}

/** The design choices DESIGN.md calls out, one section of Nested
 *  ECPTs variants each: (a) cuckoo ways d (the paper fixes 3), (b) the
 *  elastic resize threshold, (c) the MMU issue width (parallelism
 *  actually matters). Every variant keeps the config name "Nested
 *  ECPTs", so jobs and rows are keyed by its label. */
Sections
designGrid(const SimParams &base)
{
    auto apps = appsFromEnv();
    if (apps.size() > 3)
        apps = {"GUPS", "BFS", "MUMmer"};
    Sections sections;
    for (const char *title : {"(a) cuckoo ways d (paper: 3)",
                              "(b) elastic resize threshold (paper-style: 0.6)",
                              "(c) MMU issue width (parallel probes per wave)"})
        sections.push_back(
            {{title, {"busy/walk"}, appColumns(apps, 0)},
             [](const Outputs &o) {
                 Cells busy;
                 for (const JobOutput *out : o)
                     busy.emplace_back(double(out->sim.mmu_busy_cycles)
                                       / double(out->sim.walks));
                 return busy;
             }});
    sections.back().table.notes = {
        "Width 1 serializes the probe groups — the walk degenerates "
        "toward radix-like sequential behavior, which is exactly the "
        "paper's case for judicious parallelism."};
    auto add = [&](std::size_t section, const std::string &label,
                   const ExperimentConfig &cfg) {
        for (const std::string &app : apps)
            sections[section].points.push_back(
                {jobKey("ablation_design", label, app), {label}, cfg,
                 scaledParams(base, 4, 2), app});
    };
    for (const int ways : {2, 3, 4}) {
        ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
        cfg.system.guest_ecpt.ways = ways;
        cfg.system.host_ecpt.ways = ways;
        add(0, "d = " + std::to_string(ways), cfg);
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
        add(1, "threshold = " + std::to_string(thr).substr(0, 3), cfg);
    }
    for (const int width : {1, 2, 4, 8}) {
        ExperimentConfig cfg = makeConfig(ConfigId::NestedEcpt);
        cfg.memory.mmu_issue_width = width;
        add(2, "width = " + std::to_string(width), cfg);
    }
    return sections;
}

// ------------------------------------------------------ tables 1-4

/** Table 1: the modeled configurations, then the Section 9.6
 *  baselines. */
Sections
table1Grid(const SimParams &)
{
    // Indexed by PtKind.
    static const char *const kinds[] = {"radix", "ECPT", "flat", "HPT"};
    static_assert(static_cast<int>(PtKind::Hpt) == 3);
    Sections sections;
    for (const auto &[title, ids] :
         {std::pair{"", table1Configs()},
          std::pair{"Section 9.6 baselines",
                    std::vector<ConfigId>{
                        ConfigId::PlainNestedEcptThp,
                        ConfigId::AgilePagingIdealThp, ConfigId::PomTlbThp,
                        ConfigId::FlatNestedThp, ConfigId::ShadowPagingThp,
                        ConfigId::NestedHpt}}}) {
        sections.push_back(
            {{title,
              {"Configuration"},
              {{"Nested"}, {"Guest"}, {"Host"}, {"Pages"}}},
             fields({"nested", "guest", "host", "pages"})});
        for (const ConfigId id : ids)
            sections.back().points.push_back(staticPoint(
                "table1/" + configName(id), {configName(id)},
                [id](JobOutput &out) {
                    const SystemConfig sys = makeConfig(id).system;
                    const int host = static_cast<int>(sys.host_kind);
                    out.labels = {
                        {"nested", sys.virtualized ? "yes" : "no"},
                        {"guest", kinds[static_cast<int>(sys.guest_kind)]},
                        {"host", sys.virtualized ? kinds[host] : "-"},
                        {"pages",
                         sys.guest_thp ? "4KB + 2MB (THP)" : "4KB only"}};
                }));
    }
    return sections;
}

/** Table 2, read back from the simulator's default configurations. */
Sections
table2Grid(const SimParams &)
{
    const MemHierarchyConfig mem;
    const TlbConfig tlb;
    const EcptConfig ecpt;
    Sections sections;
    auto section = [&](const char *title) {
        sections.push_back(
            {{title, {"Parameter"}, {{"Value"}}}, fields({"value"})});
    };
    auto add = [&](const std::string &name, const std::string &value) {
        sections.back().points.push_back(
            staticPoint("table2/" + name, {name}, [value](JobOutput &out) {
                out.labels["value"] = value;
            }));
    };
    auto cache = [&](const char *name, const CacheConfig &c, int shift,
                     const char *unit) {
        add(name, strfmt("%llu%s, %d-way, %llu cyc RT, %d MSHRs",
                         (unsigned long long)(c.size_bytes >> shift), unit,
                         c.assoc, (unsigned long long)c.latency, c.mshrs));
    };
    section("Processor / memory hierarchy");
    cache("L1 cache", mem.l1, 10, "KB");
    cache("L2 cache", mem.l2, 10, "KB");
    cache("L3 cache", mem.l3, 20, "MB slice");
    add("Main memory (per-core share)",
        strfmt("%d channels x %d banks, tRP-tCAS-tRCD-tRAS %d-%d-%d-%d, "
               "1GHz DDR",
               mem.dram.channels, mem.dram.banks_per_channel, mem.dram.t_rp,
               mem.dram.t_cas, mem.dram.t_rcd, mem.dram.t_ras));
    add("MMU issue width",
        strfmt("%d parallel requests per wave", mem.mmu_issue_width));

    section("Per-core MMU (TLBs)");
    const char *sizes[] = {"4KB", "2MB", "1GB"};
    for (const auto &[level, geometry] :
         {std::pair{"L1", &tlb.l1}, std::pair{"L2", &tlb.l2}})
        for (int s = 0; s < num_page_sizes; ++s) {
            const auto &g = (*geometry)[s];
            add(strfmt("%s DTLB (%s pages)", level, sizes[s]),
                strfmt("%zu entries, %zu-way", g.entries,
                       g.ways ? g.ways : g.entries));
        }

    section("Radix page table parameters");
    add("Nested TLB", "24 entries, FA, 4 cyc RT");
    add("Page Walk Cache (PWC)", "3 levels x 32 entries, FA, 4 cyc RT");
    add("Nested PWC (NPWC)", "levels x 16 entries, FA, 4 cyc RT");

    section("Elastic Cuckoo Page Table parameters");
    const char *levels[] = {"PTE", "PMD", "PUD"};
    for (int l = 0; l < 3; ++l)
        add(strfmt("Initial %s g/hECPT", levels[l]),
            strfmt("%llu entries x %d ways",
                   (unsigned long long)ecpt.initial_slots[l], ecpt.ways));
    add("Initial PTE hCWT", "4096 entries x 2 ways");
    add("Initial PMD g/hCWT", "4096 entries x 2 ways");
    add("Initial PUD g/hCWT", "2048 entries x 2 ways");
    add("gCWC", "16 PMD + 2 PUD entries, FA, 4 cyc RT");
    add("hCWC (Step 1)", "4 PTE entries, FA, 4 cyc RT");
    add("hCWC (Step 3)", "16 PTE + 4 PMD + 2 PUD, FA, 4 cyc RT");
    add("Shortcut Trans. Cache (STC)", "10 entries, FA, 4 cyc RT");
    add("Hash functions", "CRC, 2-cycle latency");
    return sections;
}

/** Table 3: size, area and power of the MMU caches (CactiLite at
 *  22nm, standing in for Cacti 6.5) against the paper's, then each
 *  Nested ECPTs structure. */
Sections
table3Grid(const SimParams &)
{
    Sections sections = {
        {{"",
          {"Configuration"},
          {{"Size", 0, " B"}, {"Area", 3, " mm^2"},
           {"Paper area", 2, " mm^2"}, {"Power", 2, " mW"},
           {"Paper power", 1, " mW"}}},
         fields({"bytes", "area_mm2", "paper_mm2", "power_mw", "paper_mw"})},
        {{"Per-structure breakdown (Nested ECPTs)",
          {"Structure"},
          {{"Size", 0, " B"}, {"Ports", 0}, {"Area", 4, " mm^2"},
           {"Power", 2, " mW"}}},
         fields({"bytes", "ports", "area_mm2", "power_mw"})}};
    auto add = [&](std::size_t section, const std::string &name,
                   const std::vector<SramStructure> &structures,
                   const std::map<std::string, double> &extra) {
        const std::string prefix = section ? "table3/Nested ECPTs/" : "table3/";
        sections[section].points.push_back(staticPoint(
            prefix + name, {name}, [=](JobOutput &out) {
                const AreaPower ap = CactiLite::estimate(structures);
                out.metrics = extra;
                out.metrics["bytes"] = double(totalBytes(structures));
                out.metrics["area_mm2"] = ap.area_mm2;
                out.metrics["power_mw"] = ap.power_mw;
            }));
    };
    add(0, "Nested Radix", nestedRadixMmuStructures(),
        {{"paper_mm2", 0.01}, {"paper_mw", 2.9}});
    add(0, "Nested ECPTs", nestedEcptMmuStructures(),
        {{"paper_mm2", 0.03}, {"paper_mw", 5.2}});
    add(0, "Nested Hybrid", nestedHybridMmuStructures(),
        {{"paper_mm2", 0.02}, {"paper_mw", 2.8}});
    for (const SramStructure &s : nestedEcptMmuStructures())
        add(1, s.name, {s}, {{"ports", s.ports}});
    return sections;
}

Sections
table4Grid(const SimParams &params)
{
    Sections sections = {
        {{"",
          {"Name"},
          {{"Domain"}, {"Suite"}, {"Paper footpr.", 1, " GB"},
           {"Simulated", 2, " GB"}},
          {},
          {strfmt("(scale denominator: %llu; NECPT_SCALE overrides)",
                  (unsigned long long)params.scale_denominator)}},
         fields({"domain", "suite", "paper_gb", "simulated_gb"})}};
    for (const std::string &app : paperApplications()) {
        const std::uint64_t scale = params.scale_denominator;
        sections[0].points.push_back(staticPoint(
            "table4/" + app, {app}, [app, scale](JobOutput &out) {
                const auto info = makeWorkload(app, scale)->info();
                out.sim.config = "Table 4";
                out.sim.app = info.name;
                out.labels["domain"] = info.domain;
                out.labels["suite"] = info.suite;
                out.metrics["paper_gb"] =
                    static_cast<double>(info.paper_footprint_bytes)
                    / (1ULL << 30);
                out.metrics["simulated_gb"] =
                    static_cast<double>(info.footprint_bytes)
                    / (1ULL << 30);
            }));
    }
    return sections;
}

// ---------------------------------------------- engine design points

Sections
multicoreGrid(const SimParams &base)
{
    auto apps = appsFromEnv();
    if (apps.size() > 2)
        apps = {"GUPS", "BFS"};
    Sections sections = {
        {{"",
          {"cores", "app"},
          {{"radix cyc/core", 0}, {"ecpt cyc/core", 0}, {"speedup", 3, "x"}},
          {},
          {"Reading: per-core time grows with core count (shared L3/DRAM "
           "contention). Multiprogrammed copies multiply translation-"
           "bandwidth demand, and the parallel probe groups are the more "
           "bandwidth-sensitive design — the very effect that motivates "
           "the paper's 'judiciously limiting the number of parallel "
           "memory accesses' (Abstract). The paper's own runs are one "
           "multithreaded instance (shared footprint), which stresses "
           "bandwidth far less than N independent copies."}},
         [](const Outputs &o) {
             const double r = o[0]->sim.cycles, e = o[1]->sim.cycles;
             return Cells{r, e, r / e};
         }}};
    for (const int cores : {1, 2, 4}) {
        for (const std::string &app : apps) {
            for (const ConfigId id : head_to_head) {
                sections[0].points.push_back(sharedPoint(
                    "multicore/" + std::to_string(cores) + "c/" + app + "/"
                        + configName(id),
                    {std::to_string(cores), app}, id,
                    scaledParams(base, 4, 2), cores));
                sections[0].points.back().app = app;
            }
        }
    }
    return sections;
}

/** The two headline designs on one short workload: the cheapest grid
 *  that still exercises every injection site (pools, cuckoo tables,
 *  CWTs, DRAM), sized for CI fault campaigns. */
Sections
smokeGrid(const SimParams &base)
{
    Sections sections = {{{"", {"config"}, {{"cycles", 0}, {"mmu busy", 0}}},
                          [](const Outputs &o) {
                              return Cells{double(o[0]->sim.cycles),
                                           double(o[0]->sim.mmu_busy_cycles)};
                          }}};
    for (const ConfigId id : head_to_head)
        sections[0].points.push_back({"smoke/" + configName(id) + "/GUPS",
                                      {configName(id)}, makeConfig(id),
                                      scaledParams(base, 16, 8)});
    return sections;
}

const int mlp_depths[] = {1, 2, 4};

/** Walk memory-level parallelism: the 8-core contention regime with
 *  the per-core in-flight walk cap swept across serialized (1) and
 *  overlapped (2, 4) translation machinery. */
Sections
mlpGrid(const SimParams &base)
{
    Sections sections = {
        {{"",
          {"walks", "config"},
          {{"cycles", 0}, {"inflight", 3}, {"peak", 0}},
          {},
          {"Reading: with the cap at 1 each L2-TLB miss serializes the "
           "core for the whole walk; raising it lets independent misses "
           "overlap, so cycles drop while the walkers' probe batches "
           "contend for the same MSHRs and DRAM banks — the trade-off "
           "behind the paper's 'judiciously limiting the number of "
           "parallel memory accesses' (Abstract)."}},
         [](const Outputs &o) {
             const SimResult &r = o[0]->sim;
             return Cells{double(r.cycles), r.walk_inflight_avg,
                          double(r.walk_inflight_max)};
         }}};
    for (const int depth : mlp_depths) {
        for (const ConfigId id : head_to_head) {
            const std::string name = configName(id);
            sections[0].points.push_back(sharedPoint(
                "mlp/" + std::to_string(depth) + "w/" + name,
                {std::to_string(depth), name}, id,
                scaledParams(base, 8, 4), 8));
            sections[0].points.back().params.max_outstanding_walks = depth;
        }
    }
    return sections;
}

/** Walk-MSHR design point: the mlp sweep crossed with same-page walk
 *  coalescing on/off. Off, concurrent same-page misses each walk;
 *  on, they merge at the walker and fan out at retire. */
Sections
coalesceGrid(const SimParams &base)
{
    Sections sections = {
        {{"",
          {"walks", "coalesce"},
          {{"cycles", 0}, {"pt walks", 0}, {"merged", 0}, {"inflight", 3}},
          {},
          {"Reading: without coalescing, GUPS's read-modify-write pairs "
           "re-miss the TLB while the first walk flies, so overlapped "
           "walks do ~2x the walk work; the walk-MSHR merges those "
           "duplicates ('pt walks' returns to the mlp=1 count) and the "
           "merged requests ride the primary for free — the parallelism "
           "the paper's walker assumes."}},
         [](const Outputs &o) {
             const SimResult &r = o[0]->sim;
             const double merged = metricOr(*o[0], "walk.coalesced", 0);
             return Cells{
                 double(r.cycles),
                 double(r.walks - static_cast<std::uint64_t>(merged)),
                 merged, r.walk_inflight_avg};
         }}};
    for (const int depth : mlp_depths) {
        for (const bool coalesce : {false, true}) {
            // With one in-flight walk there is never a second
            // same-page miss to merge; skip the redundant point.
            if (coalesce && depth == 1)
                continue;
            const std::string on = coalesce ? "on" : "off";
            Point p = sharedPoint(
                "coalesce/" + std::to_string(depth) + "w/" + on,
                {std::to_string(depth), on}, ConfigId::NestedEcpt,
                scaledParams(base, 8, 4), 8);
            p.params.max_outstanding_walks = depth;
            p.params.walk_coalescing = coalesce;
            sections[0].points.push_back(std::move(p));
        }
    }
    return sections;
}

/** One scenario per OS/hypervisor mutation stream, plus all of them
 *  together — each interleaved with the GUPS access kernel. The THP
 *  compactor needs 2MB mappings to split, so its scenario (and the
 *  combined one) runs the THP variants. */
Sections
churnGrid(const SimParams &base)
{
    Sections sections = {
        {{"",
          {"scenario", "config"},
          {{"cycles", 0}, {"ops", 0}, {"rounds", 0}, {"dropped", 0},
           {"replays", 0}},
          {},
          {"Reading: every scenario interleaves a mutation stream "
           "(migration, ballooning, THP compaction, write-protection) "
           "with the access kernel; each mutation batch triggers a "
           "TLB-shootdown round that scrubs the per-core TLBs, the walk "
           "caches, and the POM-TLB, and any walk that raced an "
           "invalidation replays against the mutated tables."}},
         [](const Outputs &o) {
             return Cells{double(o[0]->sim.cycles),
                          metricOr(*o[0], "churn.ops", 0),
                          metricOr(*o[0], "shootdown.rounds", 0),
                          metricOr(*o[0], "shootdown.entries.dropped", 0),
                          metricOr(*o[0], "shootdown.walk_replays", 0)};
         }}};
    const struct
    {
        const char *label, *spec;
        bool thp;
    } scenarios[] = {
        {"migrate", "migrate:20000:4", false},
        {"balloon", "balloon:50000:16", false},
        {"thp", "thp:80000:2", true},
        {"protect", "protect:40000:4", false},
        {"all", "all", true},
    };
    for (const auto &s : scenarios) {
        for (const ConfigId id :
             {s.thp ? ConfigId::NestedRadixThp : ConfigId::NestedRadix,
              s.thp ? ConfigId::NestedEcptThp : ConfigId::NestedEcpt}) {
            const std::string name = configName(id);
            Point p = sharedPoint("churn/" + std::string(s.label) + "/" + name,
                                  {s.label, name}, id,
                                  scaledParams(base, 8, 4), 4);
            p.params.churn = parseChurnSpec(s.spec);
            sections[0].points.push_back(std::move(p));
        }
    }
    return sections;
}

/** Software-IPI vs hardware-coherence head to head: the same churn
 *  stream under both protocols, 8 cores. */
Sections
shootdownGrid(const SimParams &base)
{
    Sections sections = {
        {{"Software IPIs vs hardware translation coherence",
          {"config"},
          {{"sw cycles", 0}, {"hw cycles", 0}, {"hw gain", 3, "x"},
           {"sw lat", 0}, {"hw lat", 0}},
          {},
          {"Reading: the sw protocol interrupts every core and stalls "
           "the initiator until the last ack; the hw protocol rides the "
           "coherence network to just the structures holding stale "
           "entries, so its rounds are shorter and nobody stalls — the "
           "gap is the shootdown tax the churn stream levies on each "
           "design."}},
         [](const Outputs &o) {
             const double sw = o[0]->sim.cycles, hw = o[1]->sim.cycles;
             return Cells{sw, hw, sw / hw,
                          metricOr(*o[0], "shootdown.latency.mean", 0),
                          metricOr(*o[1], "shootdown.latency.mean", 0)};
         }}};
    for (const std::string mode : {"sw", "hw"}) {
        for (const ConfigId id : head_to_head) {
            Point p = sharedPoint("shootdown/" + mode + "/" + configName(id),
                                  {configName(id)}, id,
                                  scaledParams(base, 8, 4), 8);
            // Denser than the churn grid's scenarios: the protocols
            // only separate when rounds are frequent enough for the
            // sw initiator stall to show up in end-to-end cycles.
            p.params.churn = parseChurnSpec(
                "migrate:2000:8,balloon:6000:16,protect:4000:8,batch:8,"
                "mode:" + mode);
            sections[0].points.push_back(std::move(p));
        }
    }
    return sections;
}

/** A registry entry for a section grid. */
SweepGrid
sectionGrid(std::string name, std::string title, std::string paper_ref,
            Sections (*grid)(const SimParams &))
{
    return {std::move(name), std::move(title), std::move(paper_ref),
            sectionJobs(grid), sectionSummary(grid)};
}

} // namespace

Jobs
configAppJobs(const std::string &grid, const Configs &configs,
              const Names &apps, const SimParams &params)
{
    Jobs jobs;
    for (const ExperimentConfig &config : configs)
        for (const std::string &app : apps)
            jobs.push_back(simJob(jobKey(grid, config.name, app), config,
                                  params, app));
    return jobs;
}

const std::vector<SweepGrid> &
sweepGrids()
{
    static const std::vector<SweepGrid> grids = {
        {"fig9", "Speedup over the Nested Radix configuration",
         "Figure 9", configGrid("fig9", fig9Configs), fig9Summary},
        {"fig10",
         "MMU busy cycles in nested configurations (normalized to "
         "Nested Radix)",
         "Figure 10", configGrid("fig10", nestedConfigs), fig10Summary},
        {"fig11", "Histogram of nested page-walk latency (MUMmer)",
         "Figure 11",
         configGrid("fig11", thpPairConfigs, [] { return Names{"MUMmer"}; }),
         fig11Summary},
        sectionGrid("fig12", "PTE/PMD hCWT hit rates in the Step-3 hCWC",
                    "Figure 12", fig12Grid),
        {"fig13", "MMU and cache subsystem characterization",
         "Figure 13 / Section 9.3", configGrid("fig13", nestedConfigs),
         fig13Summary},
        {"fig14", "Breakdown of host and guest ECPT walk kinds",
         "Figure 14 / Section 9.4", fig14Jobs, fig14Summary},
        sectionGrid("sec94", "Shortcut Translation Cache capacity sweep",
                    "Section 9.4", sec94Grid),
        {"sec95", "Memory consumption of virtual-memory structures",
         "Section 9.5", configGrid("sec95", thpPairConfigs), sec95Summary},
        {"sec96", "Comparison to other advanced designs", "Section 9.6",
         configGrid("sec96", sec96Configs), sec96Summary},
        sectionGrid("ablation_5level",
                    "5-level radix ablation (Sunny Cove / LA57)",
                    "Section 1 motivation", ablation5Grid),
        sectionGrid("ablation_design", "Design-choice ablations",
                    "DESIGN.md design-space notes", designGrid),
        sectionGrid("table1",
                    "Modeled page table architecture configurations",
                    "Table 1", table1Grid),
        sectionGrid("table2",
                    "Architectural parameters used in the evaluation",
                    "Table 2", table2Grid),
        sectionGrid("table3", "Area and power of the MMU hardware caches",
                    "Table 3", table3Grid),
        sectionGrid("table4", "Applications evaluated", "Table 4",
                    table4Grid),
        sectionGrid("multicore", "Multi-core (multiprogrammed) scaling",
                    "Section 8 machine configuration", multicoreGrid),
        sectionGrid("smoke", "Two-design short run (CI / fault campaigns)",
                    "Section 8 machine configuration", smokeGrid),
        sectionGrid("mlp",
                    "Walk memory-level parallelism (in-flight walk cap)",
                    "Section 3 parallelism argument", mlpGrid),
        sectionGrid("coalesce",
                    "Same-page walk coalescing design point (mlp x on/off)",
                    "Section 3 parallelism argument", coalesceGrid),
        sectionGrid("churn",
                    "Translation churn scenarios (shootdown pressure)",
                    "Translation-coherence subsystem", churnGrid),
        sectionGrid(
            "shootdown",
            "Shootdown protocol head-to-head (sw IPIs vs hw coherence)",
            "Translation-coherence subsystem", shootdownGrid),
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
    printTables(grid.summarize(sink, params));
    return sink;
}

} // namespace necpt
