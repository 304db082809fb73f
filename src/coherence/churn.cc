#include "coherence/churn.hh"

#include <vector>

#include "common/error.hh"
#include "common/parse.hh"

namespace necpt
{

namespace
{

/** A period field of churn spec clause @p clause. */
std::uint64_t
parsePeriod(const std::string &clause, const std::string &value)
{
    return parseNumber<std::uint64_t>("churn spec '" + clause + "'",
                                      value);
}

/** A page/block/batch count field of churn spec clause @p clause. */
int
parseCount(const std::string &clause, const std::string &value)
{
    return parseNumber<int>("churn spec '" + clause + "' count", value, 1,
                            4096);
}

} // namespace

const char *
coherenceModeName(CoherenceMode mode)
{
    return mode == CoherenceMode::SwIpi ? "sw" : "hw";
}

ChurnSpec
parseChurnSpec(const std::string &text)
{
    ChurnSpec spec;
    for (const std::string &clause : splitOn(text, ',')) {
        if (clause.empty())
            continue;
        const auto fields = splitOn(clause, ':');
        const std::string &site = fields[0];
        auto arg = [&](std::size_t i) -> const std::string & {
            if (i >= fields.size())
                throw ConfigError(strfmt(
                    "churn spec: '%s' needs a value (e.g. %s:20000)",
                    site.c_str(), site.c_str()));
            return fields[i];
        };
        if (site == "migrate") {
            spec.migrate_period = parsePeriod(clause, arg(1));
            if (fields.size() > 2)
                spec.migrate_pages = parseCount(clause, fields[2]);
        } else if (site == "balloon") {
            spec.balloon_period = parsePeriod(clause, arg(1));
            if (fields.size() > 2)
                spec.balloon_pages = parseCount(clause, fields[2]);
        } else if (site == "thp") {
            spec.thp_period = parsePeriod(clause, arg(1));
            if (fields.size() > 2)
                spec.thp_blocks = parseCount(clause, fields[2]);
        } else if (site == "protect") {
            spec.protect_period = parsePeriod(clause, arg(1));
            if (fields.size() > 2)
                spec.protect_pages = parseCount(clause, fields[2]);
        } else if (site == "mode") {
            const std::string &m = arg(1);
            if (m == "sw")
                spec.mode = CoherenceMode::SwIpi;
            else if (m == "hw")
                spec.mode = CoherenceMode::HwCoherence;
            else
                throw ConfigError(strfmt(
                    "churn spec: unknown mode '%s' (sw or hw)",
                    m.c_str()));
        } else if (site == "batch") {
            spec.batch = parseCount(clause, arg(1));
        } else if (site == "all") {
            if (fields.size() > 1)
                throw ConfigError("churn spec: 'all' takes no value");
            spec.migrate_period = 20'000;
            spec.balloon_period = 50'000;
            spec.thp_period = 80'000;
            spec.protect_period = 40'000;
        } else {
            throw ConfigError(strfmt(
                "churn spec: unknown clause '%s' (expected migrate, "
                "balloon, thp, protect, mode, batch, or all)",
                site.c_str()));
        }
    }
    if (!spec.enabled())
        throw ConfigError(strfmt(
            "churn spec '%s' arms no source", text.c_str()));
    return spec;
}

std::string
churnSpecToString(const ChurnSpec &spec)
{
    std::string out;
    auto add = [&](const std::string &clause) {
        if (!out.empty())
            out += ',';
        out += clause;
    };
    if (spec.migrate_period > 0)
        add(strfmt("migrate:%llu:%d",
                   (unsigned long long)spec.migrate_period,
                   spec.migrate_pages));
    if (spec.balloon_period > 0)
        add(strfmt("balloon:%llu:%d",
                   (unsigned long long)spec.balloon_period,
                   spec.balloon_pages));
    if (spec.thp_period > 0)
        add(strfmt("thp:%llu:%d", (unsigned long long)spec.thp_period,
                   spec.thp_blocks));
    if (spec.protect_period > 0)
        add(strfmt("protect:%llu:%d",
                   (unsigned long long)spec.protect_period,
                   spec.protect_pages));
    if (spec.enabled()) {
        add(strfmt("mode:%s", coherenceModeName(spec.mode)));
        add(strfmt("batch:%d", spec.batch));
    }
    return out.empty() ? "none" : out;
}

} // namespace necpt
