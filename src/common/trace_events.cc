#include "common/trace_events.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"

namespace necpt
{

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
    case TraceCat::Walk: return "walk";
    case TraceCat::Probe: return "probe";
    case TraceCat::Cwc: return "cwc";
    case TraceCat::Cuckoo: return "cuckoo";
    case TraceCat::Fault: return "fault";
    case TraceCat::Mem: return "mem";
    case TraceCat::Engine: return "engine";
    case TraceCat::Shootdown: return "shootdown";
    }
    return "?";
}

namespace
{

void
writeEvent(std::ostringstream &os, const TraceEvent &e, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
       << traceCatName(e.cat) << "\",\"ph\":\"" << e.ph
       << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
       << ",\"ts\":" << e.ts;
    if (e.ph == 'X')
        os << ",\"dur\":" << e.dur;
    // Thread-scoped instants render as small arrows in Perfetto
    // instead of full-height global lines.
    if (e.ph == 'i')
        os << ",\"s\":\"t\"";
    if (e.nargs > 0) {
        os << ",\"args\":{";
        for (std::uint8_t i = 0; i < e.nargs; ++i) {
            if (i)
                os << ",";
            os << "\"" << jsonEscape(e.args[i].key) << "\":";
            if (e.args[i].text) {
                os << "\"" << jsonEscape(e.args[i].text) << "\"";
            } else {
                os << e.args[i].value;
            }
        }
        os << "}";
    }
    os << "}";
}

/** Perfetto metadata event naming the process (lane) row. */
void
writeProcessName(std::ostringstream &os, std::uint32_t pid,
                 const std::string &name, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(name)
       << "\"}}";
}

} // namespace

bool
writeChromeTrace(const std::string &path,
                 const std::vector<TraceLane> &lanes, bool canonical)
{
    std::ostringstream os;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    std::uint64_t dropped = 0;
    for (const TraceLane &lane : lanes) {
        if (!lane.buffer)
            continue;
        const TraceBuffer &buf = *lane.buffer;
        dropped += buf.dropped();
        if (!lane.name.empty())
            writeProcessName(os, buf.pid(), lane.name, first);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            const TraceEvent &e = buf.event(i);
            if (canonical && !e.deterministic)
                continue;
            writeEvent(os, e, first);
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
       << dropped << "}}\n";

    if (dropped > 0)
        warn("trace ring overflow: %llu oldest event(s) overwritten; "
             "raise capacity or use --trace-walks=N sampling",
             static_cast<unsigned long long>(dropped));

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
writeChromeTrace(const std::string &path, const TraceBuffer &buffer,
                 const std::string &process_name, bool canonical)
{
    std::vector<TraceLane> lanes{{&buffer, process_name}};
    return writeChromeTrace(path, lanes, canonical);
}

} // namespace necpt
