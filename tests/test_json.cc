/** @file The one JSON string escaper and CSV quoting: a name holding a
 *  tab and a quote must come back unchanged from every document
 *  writer (stats, time series, Chrome trace, result, sweep, CSV). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/metrics.hh"
#include "common/trace_events.hh"
#include "exec/engine.hh"
#include "sim/report.hh"
#include "sim/timeseries.hh"

namespace necpt
{

namespace
{

const std::string odd_name = "cap\ttab \"quoted\" back\\slash";

/** Every string literal of JSON document @p doc, decoded. Fails the
 *  test on a raw control character or an unknown escape. */
std::vector<std::string>
jsonStrings(const std::string &doc)
{
    std::vector<std::string> strings;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] != '"')
            continue;
        std::string s;
        for (++i; i < doc.size() && doc[i] != '"'; ++i) {
            const unsigned char c = doc[i];
            if (c < 0x20) {
                ADD_FAILURE() << "raw control character in a string";
                return strings;
            }
            if (c != '\\') {
                s += doc[i];
                continue;
            }
            switch (const char e = doc[++i]) {
            case '"': case '\\': case '/': s += e; break;
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case 'u':
                s += static_cast<char>(std::stoi(doc.substr(i + 1, 4),
                                                 nullptr, 16));
                i += 4;
                break;
            default:
                ADD_FAILURE() << "unknown escape \\" << e;
                return strings;
            }
        }
        strings.push_back(s);
    }
    return strings;
}

bool
hasString(const std::string &doc, const std::string &value)
{
    for (const std::string &s : jsonStrings(doc))
        if (s == value)
            return true;
    return false;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

/** The fields of one RFC 4180 CSV line. */
std::vector<std::string>
csvFields(const std::string &line)
{
    std::vector<std::string> fields(1);
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"')
            fields.back() += line[++i];
        else if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            fields.emplace_back();
        else
            fields.back() += c;
    }
    return fields;
}

} // namespace

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(jsonEscape("a\t\"b\\c\n"), "a\\u0009\\\"b\\\\c\\u000a");
    EXPECT_EQ(jsonEscape("plain.name"), "plain.name");
    EXPECT_EQ(jsonNumber(2208783), "2208783");
    EXPECT_EQ(jsonNumber(0.25), "0.25");
}

TEST(JsonEscape, NamesRoundTripThroughEveryWriter)
{
    MetricsRegistry reg;
    reg.addCounter(odd_name, [] { return 1ULL; }, odd_name);
    EXPECT_TRUE(hasString(reg.toJson(), odd_name)) << "stats";

    TimeSeriesBuffer series(100);
    series.record(100, {{odd_name, 1.0}});
    EXPECT_TRUE(hasString(timeseriesToJson({{odd_name, &series}}, 100),
                          odd_name))
        << "timeseries";

    TraceBuffer trace(16);
    const std::string trace_path = "test_json_trace.json";
    ASSERT_TRUE(writeChromeTrace(trace_path, {{&trace, odd_name}}, true));
    EXPECT_TRUE(hasString(slurp(trace_path), odd_name)) << "trace";

    SimResult result;
    result.config = "Nested ECPTs";
    result.app = "trace:" + odd_name;
    EXPECT_TRUE(hasString(toJson(result), result.app)) << "result";

    const std::string csv_path = "test_json_results.csv";
    ASSERT_TRUE(writeCsvFile(csv_path, {result}));
    std::istringstream csv(slurp(csv_path));
    std::string header, row;
    std::getline(csv, header);
    std::getline(csv, row);
    const auto fields = csvFields(row);
    ASSERT_EQ(fields.size(), csvFields(header).size());
    EXPECT_EQ(fields[1], result.app) << "csv";

    JobSpec spec;
    spec.key = "odd/" + odd_name;
    spec.fn = [](const JobContext &) -> JobOutput {
        throw std::runtime_error(odd_name);
    };
    SweepOptions options;
    options.progress = nullptr;
    const ResultSink sink = SweepEngine(options).run({spec});
    const std::string sweep_path = "test_json_sweep.json";
    ASSERT_TRUE(sink.writeJson(sweep_path, odd_name, 7, 1));
    const std::string sweep = slurp(sweep_path);
    EXPECT_TRUE(hasString(sweep, spec.key)) << "sweep key";
    EXPECT_TRUE(hasString(sweep, odd_name)) << "sweep error";
}

} // namespace necpt
