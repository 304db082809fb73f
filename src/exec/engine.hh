/**
 * @file
 * The sweep engine: schedules an experiment grid onto a fixed-size
 * thread pool with per-job fault isolation.
 *
 *  - Determinism: each job's seed is deriveJobSeed(base, key) — a
 *    pure function of the job key — and simulations run the base
 *    seed itself, so --jobs 1 and --jobs 8 yield bit-identical
 *    per-job records, in identical (submission) order.
 *  - Fault isolation: a job that throws is captured as a `failed`
 *    record carrying the exception message (plus the SimError
 *    taxonomy kind when typed); a job that exceeds its wall-clock
 *    budget is captured as `timeout`. Sibling jobs keep running
 *    either way — a sweep never aborts mid-grid.
 *  - Retries: attempts failing with a retryable SimError are re-run
 *    with exponential backoff (SweepOptions::retries/backoff_ms); the
 *    record keeps the attempt count and the full error chain.
 *  - Timeouts are supervised: a timed-out job's runner thread is
 *    detached (simulations have no cancellation points), so its
 *    state is intentionally leaked rather than torn down underneath
 *    a running walker.
 */

#ifndef NECPT_EXEC_ENGINE_HH
#define NECPT_EXEC_ENGINE_HH

#include <chrono>
#include <cstdio>
#include <vector>

#include "exec/job.hh"
#include "exec/result_sink.hh"

namespace necpt
{

struct SweepOptions
{
    /** Worker count; <= 0 means jobsFromEnv() (NECPT_JOBS). */
    int jobs = 0;
    /** Default per-job wall-clock budget in ms; 0 = unlimited. */
    std::uint64_t timeout_ms = 0;
    /** Base seed every job key is mixed with (the grids' simulations
     *  run SimParams::seed, which necpt_sweep sets to the same value). */
    std::uint64_t base_seed = 0xD15EA5E;
    /** Progress destination (one line per job); nullptr = silent. */
    std::FILE *progress = stderr;
    /**
     * Bounded retry for attempts that fail with a *retryable*
     * SimError (ResourceExhausted): up to this many re-runs after the
     * first attempt. Timeouts, untyped exceptions, and non-retryable
     * errors are never retried.
     */
    int retries = 0;
    /** Base backoff before retry r: backoff_ms << r, capped at 2s. */
    std::uint64_t backoff_ms = 100;
    /**
     * Per-job trace ring capacity in events; 0 (default) = tracing
     * off. When on, every job runs with a private TraceBuffer whose
     * pid is the submission index, and its record keeps the buffer
     * for ResultSink::writeTrace().
     */
    std::size_t trace_capacity = 0;
    /** Trace every Nth walk (1 = all); see TraceBuffer sampling. */
    std::uint64_t trace_sample = 1;
    /**
     * Interval metrics sampling in simulated cycles; 0 (default) =
     * off. When on, every job runs with a private TimeSeriesBuffer
     * and its record keeps the buffer for
     * ResultSink::writeTimeseries().
     */
    std::uint64_t sample_interval = 0;
};

class SweepEngine
{
  public:
    explicit SweepEngine(const SweepOptions &options = {});

    /**
     * Run every job (fault-isolated, seeded from its key) and return
     * the filled sink. Records sit at their submission index.
     */
    ResultSink run(const std::vector<JobSpec> &specs) const;

    int jobs() const { return n_jobs; }
    const SweepOptions &options() const { return opts; }

  private:
    JobRecord runIsolated(const JobSpec &spec, std::uint32_t pid,
                          std::chrono::steady_clock::time_point epoch)
        const;

    SweepOptions opts;
    int n_jobs;
};

} // namespace necpt

#endif // NECPT_EXEC_ENGINE_HH
