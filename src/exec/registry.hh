/**
 * @file
 * The sweep-grid registry: every paper experiment that runs a
 * simulation registers itself here under a short name, so one CLI
 * (`necpt_sweep`) enumerates and runs all of them.
 *
 * A grid contributes two things: a job list (pure — building it runs
 * no simulation) and a summary that turns the structured records into
 * the experiment's tables (exec/table.hh), which runSweepGrid prints.
 */

#ifndef NECPT_EXEC_REGISTRY_HH
#define NECPT_EXEC_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "exec/job.hh"
#include "exec/result_sink.hh"
#include "exec/table.hh"
#include "sim/experiment.hh"

namespace necpt
{

struct SweepGrid
{
    std::string name;      //!< CLI handle, e.g. "fig9"
    std::string title;     //!< banner line
    std::string paper_ref; //!< e.g. "Figure 9"

    /** Build the job list (no simulation happens here). */
    std::function<std::vector<JobSpec>(const SimParams &params)> make_jobs;

    /** The summary tables of the finished records; a row that needs
     *  a run which did not succeed holds that run's status. */
    std::function<std::vector<Table>(const ResultSink &sink,
                                     const SimParams &params)>
        summarize;
};

/**
 * One simulation job per (configuration, application) pair, keyed
 * "<grid>/<config>/<app>", all at @p params and its seed — the shape
 * of every figure grid.
 */
std::vector<JobSpec>
configAppJobs(const std::string &grid,
              const std::vector<ExperimentConfig> &configs,
              const std::vector<std::string> &apps,
              const SimParams &params);

/** All registered grids, stable order. */
const std::vector<SweepGrid> &sweepGrids();

/** Grid registered as @p name, or nullptr. */
const SweepGrid *findSweepGrid(const std::string &name);

/**
 * Run @p grid end to end: banner, engine fan-out, then its summary
 * tables on stdout. Returns the sink for optional export.
 */
ResultSink runSweepGrid(const SweepGrid &grid, const SimParams &params,
                        const SweepOptions &options);

} // namespace necpt

#endif // NECPT_EXEC_REGISTRY_HH
