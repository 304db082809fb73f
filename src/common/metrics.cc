#include "common/metrics.hh"

#include <cstdio>
#include <sstream>

#include "common/error.hh"
#include "common/json.hh"

namespace necpt
{

MetricsRegistry::Entry &
MetricsRegistry::claim(const std::string &name)
{
    auto [it, inserted] = entries.try_emplace(name);
    if (!inserted)
        throw InvariantViolation(
            strfmt("metric '%s' registered twice", name.c_str()));
    return it->second;
}

void
MetricsRegistry::addCounter(const std::string &name,
                            std::function<std::uint64_t()> source,
                            const std::string &desc)
{
    Entry &e = claim(name);
    e.kind = Kind::Counter;
    e.desc = desc;
    e.counter = std::move(source);
}

void
MetricsRegistry::addValue(const std::string &name,
                          std::function<double()> source,
                          const std::string &desc)
{
    Entry &e = claim(name);
    e.kind = Kind::Value;
    e.desc = desc;
    e.value = std::move(source);
}

void
MetricsRegistry::addHistogram(const std::string &name,
                              const Histogram *hist,
                              const std::string &desc)
{
    Entry &e = claim(name);
    e.kind = Kind::Histogram;
    e.desc = desc;
    e.hist = hist;
}

void
MetricsRegistry::addRates(const std::string &name, const RateMonitor *mon,
                          const std::string &desc)
{
    Entry &e = claim(name);
    e.kind = Kind::Rates;
    e.desc = desc;
    e.rates = mon;
}

void
MetricsRegistry::addHitMiss(const std::string &prefix, const HitMiss *hm,
                            const std::string &desc)
{
    addCounter(prefix + ".hits", [hm] { return hm->hits(); }, desc);
    addCounter(prefix + ".misses", [hm] { return hm->misses(); }, desc);
    addValue(prefix + ".hitrate", [hm] { return hm->rate(); }, desc);
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return entries.count(name) != 0;
}

double
MetricsRegistry::scalar(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        throw InvariantViolation(
            strfmt("unknown metric '%s'", name.c_str()));
    const Entry &e = it->second;
    switch (e.kind) {
    case Kind::Counter:
        return static_cast<double>(e.counter());
    case Kind::Value:
        return e.value();
    default:
        break;
    }
    throw InvariantViolation(
        strfmt("metric '%s' is not a scalar", name.c_str()));
}

std::map<std::string, double>
MetricsRegistry::scalarSnapshot() const
{
    std::map<std::string, double> snap;
    for (const auto &[name, e] : entries) {
        switch (e.kind) {
        case Kind::Counter:
            snap[name] = static_cast<double>(e.counter());
            break;
        case Kind::Value:
            snap[name] = e.value();
            break;
        case Kind::Histogram:
            snap[name + ".mean"] = e.hist->mean();
            snap[name + ".max"] = static_cast<double>(e.hist->max());
            snap[name + ".p50"] =
                static_cast<double>(e.hist->percentile(50));
            snap[name + ".p95"] =
                static_cast<double>(e.hist->percentile(95));
            snap[name + ".p99"] =
                static_cast<double>(e.hist->percentile(99));
            break;
        case Kind::Rates:
            snap[name + ".last"] = e.rates->lastRate();
            break;
        }
    }
    return snap;
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\"schema\":\"necpt-stats-v1\",\"metrics\":{";
    bool first = true;
    for (const auto &[name, e] : entries) {
        if (!first)
            os << ",";
        first = false;
        os << "\n\"" << jsonEscape(name) << "\":{";
        switch (e.kind) {
        case Kind::Counter:
            os << "\"kind\":\"counter\",\"value\":" << e.counter();
            break;
        case Kind::Value:
            os << "\"kind\":\"value\",\"value\":" << jsonNumber(e.value());
            break;
        case Kind::Histogram: {
            const Histogram &h = *e.hist;
            os << "\"kind\":\"histogram\",\"bin_width\":" << h.binWidth()
               << ",\"total\":" << h.total() << ",\"max\":" << h.max()
               << ",\"mean\":" << jsonNumber(h.mean()) << ",\"bins\":[";
            for (std::size_t b = 0; b < h.numBins(); ++b) {
                if (b)
                    os << ",";
                os << h.count(b);
            }
            os << "]";
            break;
        }
        case Kind::Rates: {
            const RateMonitor &m = *e.rates;
            os << "\"kind\":\"rates\",\"interval\":" << m.intervalCycles()
               << ",\"last\":" << jsonNumber(m.lastRate())
               << ",\"history\":[";
            bool h1 = true;
            for (double r : m.history()) {
                if (!h1)
                    os << ",";
                h1 = false;
                os << jsonNumber(r);
            }
            os << "]";
            break;
        }
        }
        if (!e.desc.empty())
            os << ",\"desc\":\"" << jsonEscape(e.desc) << "\"";
        os << "}";
    }
    os << "\n}}\n";
    return os.str();
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const std::string text = toJson();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), out) == text.size();
    std::fclose(out);
    return ok;
}

} // namespace necpt
