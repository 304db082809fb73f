#include "sim/timeseries.hh"

#include "common/json.hh"
#include "common/log.hh"

#include <cstdio>
#include <fstream>

namespace necpt
{

void
TimeSeriesBuffer::record(double cycle,
                         const std::map<std::string, double> &snap)
{
    if (names_.empty()) {
        names_.reserve(snap.size());
        for (const auto &kv : snap)
            names_.push_back(kv.first);
    }
    NECPT_ASSERT(snap.size() == names_.size());
    std::vector<double> row;
    row.reserve(names_.size() + 1);
    row.push_back(cycle);
    for (const auto &kv : snap)
        row.push_back(kv.second);
    rows_.push_back(std::move(row));
}

std::string
timeseriesToJson(const std::vector<TimeSeriesRun> &runs,
                 std::uint64_t interval)
{
    std::string out;
    out += "{\"schema\":\"necpt-timeseries-v1\",\"interval\":";
    out += std::to_string(interval);
    out += ",\"runs\":[";
    bool first_run = true;
    for (const TimeSeriesRun &run : runs) {
        if (!run.buffer)
            continue;
        if (!first_run)
            out += ',';
        first_run = false;
        out += "{\"key\":\"";
        out += jsonEscape(run.key);
        out += "\",\"series\":[";
        const auto &names = run.buffer->series();
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (i)
                out += ',';
            out += '"';
            out += jsonEscape(names[i]);
            out += '"';
        }
        out += "],\"samples\":[";
        const auto &rows = run.buffer->samples();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            if (r)
                out += ',';
            out += '[';
            for (std::size_t c = 0; c < rows[r].size(); ++c) {
                if (c)
                    out += ',';
                out += jsonNumber(rows[r][c]);
            }
            out += ']';
        }
        out += "]}";
    }
    out += "]}\n";
    return out;
}

bool
writeTimeseriesJson(const std::string &path,
                    const std::vector<TimeSeriesRun> &runs,
                    std::uint64_t interval)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << timeseriesToJson(runs, interval);
    return static_cast<bool>(out);
}

} // namespace necpt
