#include "exec/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hh"
#include "exec/thread_pool.hh"
#include "sim/experiment.hh"

namespace necpt
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::uint64_t
usBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
}

/** Error-kind tag as a string literal: trace args store raw pointers,
 *  so the per-record std::string cannot be handed to the buffer. */
const char *
internedErrorKind(const std::string &kind)
{
    for (const char *k : {"config", "resource_exhausted", "trace",
                          "invariant", "timeout"})
        if (kind == k)
            return k;
    return "exception";
}

/** Shared between a job's runner thread and its supervising worker. */
struct Isolated
{
    std::mutex mtx;
    std::condition_variable done_cv;
    bool done = false;
    JobStatus status = JobStatus::Failed;
    std::string error;
    std::string error_kind;
    bool retryable = false;
    JobOutput out;
};

} // namespace

SweepEngine::SweepEngine(const SweepOptions &options) : opts(options)
{
    n_jobs = opts.jobs > 0 ? opts.jobs : jobsFromEnv();
}

JobRecord
SweepEngine::runIsolated(const JobSpec &spec, std::uint32_t pid,
                         Clock::time_point epoch) const
{
    JobRecord record;
    record.key = spec.key;
    record.seed = deriveJobSeed(opts.base_seed, spec.key);

    const auto start = Clock::now();
    const std::uint64_t budget_ms =
        spec.timeout_ms ? spec.timeout_ms : opts.timeout_ms;

    // Engine-lane bookkeeping for the trace: which kinds the retried
    // attempts failed with (interned so TraceArg can hold them), and
    // the final attempt's buffer.
    std::vector<const char *> retry_kinds;
    std::shared_ptr<TraceBuffer> tracer;
    std::shared_ptr<TimeSeriesBuffer> timeseries;

    // Emits the engine spans into the final attempt's buffer and
    // publishes it on the record. The job/retry/audit events carry
    // simulated-cycle timestamps and survive canonical export; the
    // queue/run wall spans are tagged non-deterministic.
    auto finalize = [&] {
        record.timeseries = timeseries;
        if (!tracer)
            return;
        record.trace = tracer;
        TraceBuffer *t = tracer.get();
        const Cycles cycles = record.status == JobStatus::Ok
            ? record.out.sim.cycles : 0;
        t->span("job", TraceCat::Engine, trace_engine_tid, 0, cycles,
                {{"attempts", record.attempts}});
        for (std::size_t a = 0; a < retry_kinds.size(); ++a)
            t->instant("job.retry", TraceCat::Engine, trace_engine_tid,
                       0, {{"attempt", static_cast<std::int64_t>(a)},
                           {"kind", 0, retry_kinds[a]}});
        if (spec.audit && record.status == JobStatus::Ok)
            t->instant("job.audit", TraceCat::Engine, trace_engine_tid,
                       cycles);
        const std::uint64_t queue_us = usBetween(epoch, start);
        t->wallSpan("job.queue", 0, queue_us);
        t->wallSpan("job.run", queue_us,
                    static_cast<std::uint64_t>(record.wall_ms * 1000),
                    {{"attempts", record.attempts}});
    };

    for (int attempt = 0;; ++attempt) {
        // A fresh ring per attempt: a retried job's trace holds only
        // the attempt that produced the record.
        if (opts.trace_capacity) {
            tracer = std::make_shared<TraceBuffer>(opts.trace_capacity,
                                                   opts.trace_sample);
            tracer->setPid(pid);
        }
        if (opts.sample_interval)
            timeseries =
                std::make_shared<TimeSeriesBuffer>(opts.sample_interval);
        JobContext ctx{record.seed, attempt};
        ctx.tracer = tracer.get();
        ctx.timeseries = timeseries.get();
        record.attempts = attempt + 1;

        // Heap-shared so a detached (timed-out) runner can still
        // finish writing into it safely after the supervisor has
        // moved on. fn/audit are captured by value: a detached runner
        // may outlive the caller's JobSpec vector.
        auto state = std::make_shared<Isolated>();
        // The runner co-owns the tracer: a detached (timed-out) runner
        // keeps emitting into a live buffer that only it references.
        std::thread runner(
            [state, fn = spec.fn, audit = spec.audit, ctx, tracer,
             timeseries] {
                JobStatus status = JobStatus::Failed;
                std::string error, error_kind;
                bool retryable = false;
                JobOutput out;
                try {
                    out = fn(ctx);
                    if (audit)
                        audit(ctx);
                    status = JobStatus::Ok;
                } catch (const SimError &e) {
                    error = e.what();
                    error_kind = e.kindName();
                    retryable = e.retryable();
                } catch (const std::exception &e) {
                    error = e.what();
                    error_kind = "exception";
                } catch (...) {
                    error = "unknown exception";
                    error_kind = "exception";
                }
                std::lock_guard<std::mutex> lock(state->mtx);
                state->status = status;
                state->error = std::move(error);
                state->error_kind = std::move(error_kind);
                state->retryable = retryable;
                state->out = std::move(out);
                state->done = true;
                state->done_cv.notify_all();
            });

        bool finished = true;
        if (budget_ms == 0) {
            runner.join();
        } else {
            std::unique_lock<std::mutex> lock(state->mtx);
            finished = state->done_cv.wait_for(
                lock, std::chrono::milliseconds(budget_ms),
                [&] { return state->done; });
            lock.unlock();
            if (finished)
                runner.join();
            else
                runner.detach(); // no cancellation points in a sim
        }

        if (!finished) {
            // A timed-out job is never retried: the detached runner
            // still owns the machine it was building, and a rerun
            // would almost certainly time out again anyway. The trace
            // and time-series buffers stay with the runner — reading
            // them here would race a simulation still emitting.
            tracer.reset();
            timeseries.reset();
            record.wall_ms = msSince(start);
            record.status = JobStatus::TimedOut;
            record.error = "timed out after "
                + std::to_string(budget_ms) + " ms";
            record.error_kind = "timeout";
            record.error_chain.push_back(record.error);
            return record;
        }

        bool retryable;
        {
            std::lock_guard<std::mutex> lock(state->mtx);
            record.status = state->status;
            record.error = state->error;
            record.error_kind = state->error_kind;
            record.out = std::move(state->out);
            retryable = state->retryable;
        }
        if (record.status == JobStatus::Ok) {
            record.wall_ms = msSince(start);
            finalize();
            return record;
        }
        record.error_chain.push_back(record.error);
        if (!retryable || attempt >= opts.retries) {
            record.wall_ms = msSince(start);
            finalize();
            return record;
        }
        retry_kinds.push_back(internedErrorKind(record.error_kind));
        // Exponential backoff before the retry — transient pressure
        // (the reason ResourceExhausted is retryable) needs time to
        // drain on a loaded machine.
        const std::uint64_t delay = std::min<std::uint64_t>(
            opts.backoff_ms << attempt, 2000);
        if (delay)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
    }
}

ResultSink
SweepEngine::run(const std::vector<JobSpec> &specs) const
{
    ResultSink sink(specs.size());
    if (specs.empty())
        return sink;

    std::atomic<std::size_t> completed{0};
    const int workers =
        std::min<int>(n_jobs, static_cast<int>(specs.size()));
    const auto epoch = Clock::now();
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        pool.submit([this, i, &specs, &sink, &completed, epoch] {
            const JobSpec &spec = specs[i];
            JobRecord record =
                runIsolated(spec, static_cast<std::uint32_t>(i), epoch);
            const std::size_t n = completed.fetch_add(1) + 1;
            if (opts.progress)
                std::fprintf(opts.progress,
                             "  [%3zu/%zu] %-40s %s (%.0f ms)\n", n,
                             specs.size(), spec.key.c_str(),
                             jobStatusName(record.status),
                             record.wall_ms);
            sink.put(i, std::move(record));
        });
    }
    pool.wait();
    return sink;
}

} // namespace necpt
