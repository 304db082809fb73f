/**
 * @file
 * Thread-safe aggregation of per-job records plus machine-readable
 * export: one JSON document per sweep (every record, including
 * failures) and a CSV of the successful SimResults in the existing
 * sim/report.hh column format.
 *
 * Record order is the grid's submission order, not completion order,
 * so exported files are deterministic regardless of worker count.
 */

#ifndef NECPT_EXEC_RESULT_SINK_HH
#define NECPT_EXEC_RESULT_SINK_HH

#include <mutex>
#include <string>
#include <vector>

#include "exec/job.hh"

namespace necpt
{

class ResultSink
{
  public:
    /** Size the sink for @p jobs records (slot per submission index). */
    explicit ResultSink(std::size_t jobs = 0);

    /** Movable (a fresh mutex; no concurrent use during a move). */
    ResultSink(ResultSink &&other) noexcept
        : slots(std::move(other.slots))
    {
    }
    ResultSink &
    operator=(ResultSink &&other) noexcept
    {
        slots = std::move(other.slots);
        return *this;
    }

    /** Deposit the record for submission index @p index. Thread-safe. */
    void put(std::size_t index, JobRecord record);

    /** All records, in submission order. */
    const std::vector<JobRecord> &records() const { return slots; }

    std::size_t size() const { return slots.size(); }
    std::size_t okCount() const;
    std::size_t failedCount() const { return size() - okCount(); }

    /** Record for @p key, or nullptr. */
    const JobRecord *find(const std::string &key) const;

    /** Status of the first job of @p keys that did not succeed (a key
     *  with no record counts as failed), or Ok. */
    JobStatus firstFailure(const std::vector<std::string> &keys) const;

    /** Successful SimResults, submission order (CSV fodder). */
    std::vector<SimResult> okResults() const;

    /**
     * Write the sweep as one JSON document:
     * {"sweep": name, "base_seed": n, "jobs": n, "total": n, "ok": n,
     *  "failed": n, "records": [{"key","status","seed","attempts",
     *  "wall_ms"?, "host_time"?, "error"?, "error_kind"?,
     *  "error_chain"?, "result"?, "metrics"?, "labels"?}, ...]}
     *
     * @param canonical omit execution-detail fields (jobs, wall_ms,
     *        host_time)
     *        so two runs of the same seed compare byte-identical
     *        regardless of worker count — the fault-campaign
     *        reproducibility contract.
     * @return success.
     */
    bool writeJson(const std::string &path, const std::string &sweep_name,
                   std::uint64_t base_seed, int jobs,
                   bool canonical = false) const;

    /** CSV of successful results via sim/report.hh. @return success. */
    bool writeCsv(const std::string &path) const;

    /**
     * Write every job's trace ring as one Chrome trace-event JSON
     * file: one lane per job, pid = submission index, lanes in
     * submission order (worker count never reorders the bytes).
     * @param canonical drop the engine's wall-clock spans so equal
     *        seeds compare byte-identical at any --jobs value.
     * @return success (false also when no job carried a trace).
     */
    bool writeTrace(const std::string &path,
                    bool canonical = false) const;

    /**
     * Write every job's interval metrics samples as one merged
     * necpt-timeseries-v1 document, runs in submission order (worker
     * count never reorders the bytes — simulated-cycle timestamps
     * only). @return success (false also when no job sampled).
     */
    bool writeTimeseries(const std::string &path) const;

  private:
    std::vector<JobRecord> slots;
    mutable std::mutex mtx;
};

} // namespace necpt

#endif // NECPT_EXEC_RESULT_SINK_HH
