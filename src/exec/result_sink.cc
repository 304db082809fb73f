#include "exec/result_sink.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"
#include "sim/report.hh"

namespace necpt
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Failed: return "failed";
    case JobStatus::TimedOut: return "timeout";
    }
    return "?";
}

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, const std::string &key)
{
    // FNV-1a over the key bytes...
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    // ...then fold in the base seed and finalize with splitmix64 so
    // nearby keys land on unrelated streams.
    std::uint64_t sm = h ^ base_seed;
    std::uint64_t seed = splitmix64(sm);
    return seed ? seed : 1; // keep 0 out of seed-sensitive RNGs
}

ResultSink::ResultSink(std::size_t jobs) : slots(jobs) {}

void
ResultSink::put(std::size_t index, JobRecord record)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (index >= slots.size())
        slots.resize(index + 1);
    slots[index] = std::move(record);
}

std::size_t
ResultSink::okCount() const
{
    std::size_t n = 0;
    for (const JobRecord &r : slots)
        n += r.status == JobStatus::Ok;
    return n;
}

const JobRecord *
ResultSink::find(const std::string &key) const
{
    for (const JobRecord &r : slots)
        if (r.key == key)
            return &r;
    return nullptr;
}

JobStatus
ResultSink::firstFailure(const std::vector<std::string> &keys) const
{
    for (const std::string &key : keys) {
        const JobRecord *r = find(key);
        if (!r || r->status != JobStatus::Ok)
            return r ? r->status : JobStatus::Failed;
    }
    return JobStatus::Ok;
}

std::vector<SimResult>
ResultSink::okResults() const
{
    std::vector<SimResult> results;
    results.reserve(slots.size());
    for (const JobRecord &r : slots)
        if (r.status == JobStatus::Ok)
            results.push_back(r.out.sim);
    return results;
}

bool
ResultSink::writeJson(const std::string &path,
                      const std::string &sweep_name,
                      std::uint64_t base_seed, int jobs,
                      bool canonical) const
{
    std::ostringstream os;
    os << "{\"sweep\":\"" << jsonEscape(sweep_name) << "\",";
    os << "\"base_seed\":" << base_seed << ",";
    // Canonical output must be a pure function of (grid, seed): the
    // worker count is an execution detail, like wall_ms below.
    if (!canonical)
        os << "\"jobs\":" << jobs << ",";
    os << "\"total\":" << size() << ",";
    os << "\"ok\":" << okCount() << ",";
    os << "\"failed\":" << failedCount() << ",";
    os << "\"records\":[";
    bool first = true;
    for (const JobRecord &r : slots) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"key\":\"" << jsonEscape(r.key) << "\",";
        os << "\"status\":\"" << jobStatusName(r.status) << "\",";
        os << "\"seed\":" << r.seed << ",";
        os << "\"attempts\":" << r.attempts;
        if (!canonical) {
            os << ",\"wall_ms\":" << r.wall_ms;
            if (r.status == JobStatus::Ok)
                os << ",\"host_time\":" << toJson(r.out.sim.host_time);
        }
        if (r.status != JobStatus::Ok) {
            os << ",\"error\":\"" << jsonEscape(r.error) << "\"";
            if (!r.error_kind.empty())
                os << ",\"error_kind\":\"" << jsonEscape(r.error_kind)
                   << "\"";
            if (!r.error_chain.empty()) {
                os << ",\"error_chain\":[";
                bool c1 = true;
                for (const std::string &e : r.error_chain) {
                    if (!c1)
                        os << ",";
                    c1 = false;
                    os << "\"" << jsonEscape(e) << "\"";
                }
                os << "]";
            }
        } else {
            os << ",\"result\":" << toJson(r.out.sim);
            if (!r.out.metrics.empty()) {
                os << ",\"metrics\":{";
                bool m1 = true;
                for (const auto &[k, v] : r.out.metrics) {
                    if (!m1)
                        os << ",";
                    m1 = false;
                    os << "\"" << jsonEscape(k) << "\":" << jsonNumber(v);
                }
                os << "}";
            }
            if (!r.out.labels.empty()) {
                os << ",\"labels\":{";
                bool l1 = true;
                for (const auto &[k, v] : r.out.labels) {
                    if (!l1)
                        os << ",";
                    l1 = false;
                    os << "\"" << jsonEscape(k) << "\":\""
                       << jsonEscape(v) << "\"";
                }
                os << "}";
            }
        }
        os << "}";
    }
    os << "]}\n";

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const std::string text = os.str();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), out) == text.size();
    std::fclose(out);
    return ok;
}

bool
ResultSink::writeCsv(const std::string &path) const
{
    return writeCsvFile(path, okResults());
}

bool
ResultSink::writeTrace(const std::string &path, bool canonical) const
{
    std::vector<TraceLane> lanes;
    for (const JobRecord &r : slots)
        if (r.trace)
            lanes.push_back({r.trace.get(), r.key});
    if (lanes.empty())
        return false;
    return writeChromeTrace(path, lanes, canonical);
}

bool
ResultSink::writeTimeseries(const std::string &path) const
{
    std::vector<TimeSeriesRun> runs;
    std::uint64_t interval = 0;
    for (const JobRecord &r : slots) {
        if (!r.timeseries)
            continue;
        runs.push_back({r.key, r.timeseries.get()});
        interval = r.timeseries->interval();
    }
    if (runs.empty())
        return false;
    return writeTimeseriesJson(path, runs, interval);
}

} // namespace necpt
