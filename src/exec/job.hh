/**
 * @file
 * The unit of sweep work: a keyed, seeded, fault-isolated simulation
 * job and the structured record it leaves behind.
 *
 * Determinism contract: a job's seed is derived purely from (sweep
 * base seed, job key) — never from submission order, worker
 * identity, or wall-clock — so a grid run with 1 worker and with 8
 * workers produces bit-identical per-job results. Simulation jobs
 * run the sweep's base seed itself (common random numbers across
 * configurations); the derived seed drives their fault draws and
 * seeds jobs that run no simulation.
 */

#ifndef NECPT_EXEC_JOB_HH
#define NECPT_EXEC_JOB_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/simulator.hh"
#include "sim/timeseries.hh"

namespace necpt
{

/** What the engine hands a job when it runs. */
struct JobContext
{
    /** Seed derived from (base seed, job key); see deriveJobSeed().
     *  It seeds fault draws (faultSeed()) and jobs that run no
     *  simulation; simulations run the sweep's base seed. */
    std::uint64_t seed = 0;

    /** Retry attempt number, 0 on the first run. The simulation seed
     *  must NOT depend on it (records stay key-deterministic); only
     *  fault draws may (see faultSeed()). */
    int attempt = 0;

    /**
     * Per-job event tracer (null = tracing off). Owned by the engine;
     * jobs thread it into SimParams::tracer so walk events land in
     * this job's private ring (pid = submission index).
     */
    TraceBuffer *tracer = nullptr;

    /**
     * Per-job interval metrics sampler (null = sampling off). Owned by
     * the engine; jobs thread it into SimParams::timeseries so the
     * run's registry snapshots land in this job's private buffer.
     */
    TimeSeriesBuffer *timeseries = nullptr;

    /**
     * Fault-plan seed for this attempt: a pure function of (seed,
     * attempt), so a retried job redraws its injected faults — the
     * point of retrying a ResourceExhausted — while any --jobs value
     * still reproduces the identical attempt sequence.
     */
    std::uint64_t
    faultSeed() const
    {
        std::uint64_t sm = seed
            ^ (0xFA17ULL * (static_cast<std::uint64_t>(attempt) + 1));
        const std::uint64_t fs = splitmix64(sm);
        return fs ? fs : 1;
    }
};

/**
 * What a job produces: the standard structured simulation record,
 * plus free-form numeric/text extras for grids that report values
 * outside SimResult (e.g. Table-4 footprints).
 */
struct JobOutput
{
    SimResult sim;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> labels;
};

using JobFn = std::function<JobOutput(const JobContext &)>;

/** One schedulable experiment. */
struct JobSpec
{
    /**
     * Stable identity, e.g. "fig9/Nested ECPTs/GUPS". Keys must be
     * unique within a sweep; they name the job in logs, seed
     * derivation, and the results file.
     */
    std::string key;
    JobFn fn;
    /** Per-job wall-clock budget; 0 = use the engine default. */
    std::uint64_t timeout_ms = 0;
    /**
     * Optional invariant audit, run in the job's isolated thread
     * right after fn succeeds (e.g. an ECPT/CWT cross-check after
     * injected faults). A throw here turns the attempt into a typed
     * failure exactly as if fn had thrown.
     */
    std::function<void(const JobContext &)> audit;
};

enum class JobStatus
{
    Ok,
    Failed,   //!< threw; error holds the exception message
    TimedOut, //!< exceeded its wall-clock budget
};

/** The structured record every job leaves in the ResultSink. */
struct JobRecord
{
    std::string key;
    JobStatus status = JobStatus::Failed;
    std::string error;       //!< non-empty iff status != Ok
    /** The job's derived seed (fault draws, non-simulation jobs);
     *  its simulation ran the sweep's base seed. */
    std::uint64_t seed = 0;
    double wall_ms = 0;      //!< observed wall-clock (informational)
    JobOutput out;           //!< valid iff status == Ok

    /** Attempts consumed (1 = no retry was needed). */
    int attempts = 1;
    /** SimError taxonomy tag of the final error ("config",
     *  "resource_exhausted", "trace", "invariant"), "exception" for
     *  untyped throws; empty when status == Ok. */
    std::string error_kind;
    /** Error message of every failed attempt, oldest first (the final
     *  one equals @ref error). Empty when the first attempt passed. */
    std::vector<std::string> error_chain;

    /**
     * The job's trace ring (final attempt), when the sweep ran with
     * tracing on. Null on timeout: the detached runner still owns its
     * buffer, so the record drops its reference instead of racing.
     */
    std::shared_ptr<TraceBuffer> trace;

    /** The job's interval metrics samples (final attempt), when the
     *  sweep ran with sampling on. Null on timeout, same reason. */
    std::shared_ptr<TimeSeriesBuffer> timeseries;
};

/** Printable status name ("ok" / "failed" / "timeout"). */
const char *jobStatusName(JobStatus status);

/**
 * Derive a job's RNG seed from the sweep base seed and the job key
 * (FNV-1a over the key, then a splitmix64 finalizer with the base).
 * Pure function of its inputs — the scheduling-independence anchor.
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            const std::string &key);

} // namespace necpt

#endif // NECPT_EXEC_JOB_HH
