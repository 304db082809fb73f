/**
 * @file
 * Helpers for every program that runs experiments (necpt-run, the
 * sweep grids in exec/, the benches, the examples): the environment
 * knobs below, the shared L3/DRAM a multi-core run restores, and the
 * stdout banner. Nothing here depends on exec/, so src/ without
 * exec/ still builds and links.
 *
 * Environment knobs (all optional):
 *   NECPT_WARMUP   warm-up accesses per run      (default 200000)
 *   NECPT_MEASURE  measured accesses per run     (default 1000000)
 *   NECPT_SCALE    Table-4 footprint divisor     (default 16)
 *   NECPT_APPS     comma-separated app subset    (default: all 11)
 *   NECPT_MLP      in-flight walks per core      (default 1)
 *   NECPT_JOBS     sweep worker threads          (default min(4, hw))
 */

#ifndef NECPT_SIM_EXPERIMENT_HH
#define NECPT_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace necpt
{

/** SimParams honoring the environment knobs. */
SimParams paramsFromEnv();

/** Sweep worker count (NECPT_JOBS; default min(4, hw)). */
int jobsFromEnv();

/**
 * @p params with the measured/warm-up run lengths divided — the
 * standard shortening the wide grids apply (divisors of 0 or 1 leave
 * the phase untouched).
 */
SimParams scaledParams(SimParams params, std::uint64_t measure_div,
                       std::uint64_t warmup_div);

/**
 * Restore the shared resources @p cores multiprogrammed cores
 * actually share: cores x 2MB L3 slices and the machine's DRAM
 * channels (the single-core default models a 1/4 share of the
 * paper's 8-core machine).
 */
void configureSharedResources(ExperimentConfig &config, int cores);

/** Application list honoring NECPT_APPS. */
std::vector<std::string> appsFromEnv();

/** The banner that opens every experiment's stdout: what it shows and
 *  the paper table/figure it reproduces. */
void printBanner(const std::string &what, const std::string &paper_ref);

} // namespace necpt

#endif // NECPT_SIM_EXPERIMENT_HH
