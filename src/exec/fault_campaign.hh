/**
 * @file
 * Fault-injection campaigns: replicate a registered sweep grid under
 * N independent fault seeds with a FaultSpec armed, plus (when the
 * spec asks for trace corruption) one forged-corrupt-trace load per
 * replication.
 *
 * Campaign contract:
 *  - every job is a normal engine job — a fault that surfaces is a
 *    typed `failed` record (error_kind from the SimError taxonomy),
 *    never a process abort;
 *  - records are a pure function of (grid, params, spec, base seed):
 *    re-running with any --jobs value reproduces them byte-identically
 *    (canonical JSON, wall-clock omitted);
 *  - retryable faults consume engine retries and the record keeps the
 *    attempt count and full error chain.
 */

#ifndef NECPT_EXEC_FAULT_CAMPAIGN_HH
#define NECPT_EXEC_FAULT_CAMPAIGN_HH

#include <string>
#include <vector>

#include "common/fault.hh"
#include "exec/registry.hh"

namespace necpt
{

struct FaultCampaignOptions
{
    /** Sites and probabilities to arm in every replication. */
    FaultSpec spec;
    /** Replications: the grid is re-keyed under "faults/s0/" ..
     *  "faults/s<n-1>/", each deriving independent fault streams. */
    int fault_seeds = 20;
};

/**
 * Build the campaign job list: @p copts.fault_seeds re-keyed copies
 * of the grid's jobs with @p copts.spec armed, plus a corrupt-trace
 * load job per replication when the spec enables trace corruption.
 * Pure — no simulation runs here.
 */
std::vector<JobSpec> makeFaultCampaignJobs(
    const SweepGrid &grid, const SimParams &params,
    const FaultCampaignOptions &copts);

/**
 * Print the campaign verdict as a table: records per status and error
 * kind, retry pressure (total attempts vs jobs), and the survival
 * line.
 */
void printFaultCampaignSummary(const ResultSink &sink,
                               const FaultCampaignOptions &copts);

/**
 * Forge a deliberately corrupt trace file at @p path; the corruption
 * mode (truncated header, bad magic, partial trailing record, record
 * count lying) is chosen deterministically from @p seed. Returns a
 * short name of the mode written. Throws TraceError only via the
 * *loader* — this writer itself reports I/O trouble as
 * ResourceExhausted.
 */
std::string writeCorruptTrace(const std::string &path,
                              std::uint64_t seed);

} // namespace necpt

#endif // NECPT_EXEC_FAULT_CAMPAIGN_HH
