#include "common/fault.hh"

#include <vector>

#include "common/error.hh"
#include "common/parse.hh"

namespace necpt
{

namespace
{

/** The probability (or pool fill fraction) of fault site @p site. */
double
parseProb(const std::string &site, const std::string &value)
{
    return parseNumber<double>("fault spec '" + site + "'", value, 0.0,
                               1.0);
}

/** The cycle count of fault site @p site. */
std::uint64_t
parseCycles(const std::string &site, const std::string &value)
{
    return parseNumber<std::uint64_t>("fault spec '" + site + "' cycles",
                                      value);
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &text)
{
    FaultSpec spec;
    for (const std::string &clause : splitOn(text, ',')) {
        if (clause.empty())
            continue;
        const auto fields = splitOn(clause, ':');
        const std::string &site = fields[0];
        auto arg = [&](std::size_t i) -> const std::string & {
            if (i >= fields.size())
                throw ConfigError(strfmt("fault spec: site '%s' needs "
                                         "a value (e.g. %s:0.01)",
                                         site.c_str(), site.c_str()));
            return fields[i];
        };
        if (site == "pool") {
            spec.pool_fill = parseProb(site, arg(1));
        } else if (site == "kicks") {
            spec.kick_prob = parseProb(site, arg(1));
        } else if (site == "resize") {
            spec.resize_prob = parseProb(site, arg(1));
        } else if (site == "mem") {
            spec.mem_prob = parseProb(site, arg(1));
            if (fields.size() > 2)
                spec.mem_spike_cycles = parseCycles(site, fields[2]);
        } else if (site == "trace") {
            if (fields.size() > 1)
                throw ConfigError("fault spec: 'trace' takes no value");
            spec.trace_corruption = true;
        } else if (site == "shootdown") {
            spec.shootdown_prob = parseProb(site, arg(1));
            if (fields.size() > 2)
                spec.shootdown_delay_cycles = parseCycles(site, fields[2]);
        } else if (site == "all") {
            if (fields.size() > 1)
                throw ConfigError("fault spec: 'all' takes no value");
            spec.pool_fill = 0.95;
            spec.kick_prob = 0.02;
            spec.resize_prob = 0.01;
            spec.mem_prob = 0.01;
            spec.trace_corruption = true;
            spec.shootdown_prob = 0.05;
        } else {
            throw ConfigError(strfmt(
                "fault spec: unknown site '%s' (expected pool, kicks, "
                "resize, mem, trace, shootdown, or all)", site.c_str()));
        }
    }
    if (!spec.enabled())
        throw ConfigError(strfmt(
            "fault spec '%s' arms no site", text.c_str()));
    return spec;
}

std::string
faultSpecToString(const FaultSpec &spec)
{
    std::string out;
    auto add = [&](const std::string &clause) {
        if (!out.empty())
            out += ',';
        out += clause;
    };
    if (spec.pool_fill >= 0.0)
        add(strfmt("pool:%g", spec.pool_fill));
    if (spec.kick_prob > 0.0)
        add(strfmt("kicks:%g", spec.kick_prob));
    if (spec.resize_prob > 0.0)
        add(strfmt("resize:%g", spec.resize_prob));
    if (spec.mem_prob > 0.0)
        add(strfmt("mem:%g:%llu", spec.mem_prob,
                   (unsigned long long)spec.mem_spike_cycles));
    if (spec.trace_corruption)
        add("trace");
    if (spec.shootdown_prob > 0.0)
        add(strfmt("shootdown:%g:%llu", spec.shootdown_prob,
                   (unsigned long long)spec.shootdown_delay_cycles));
    return out.empty() ? "none" : out;
}

FaultPlan::FaultPlan(const FaultSpec &spec, std::uint64_t seed)
    : _spec(spec), _seed(seed)
{
    // Independent per-site streams: arming one site must not shift
    // another site's draw sequence, or two specs that share a site
    // would inject different faults there under the same seed.
    std::uint64_t sm = seed ^ 0xFA017'5EEDULL;
    pool_rng = Rng(splitmix64(sm));
    kick_rng = Rng(splitmix64(sm));
    resize_rng = Rng(splitmix64(sm));
    mem_rng = Rng(splitmix64(sm));
    // Appended after the original four so pre-existing specs draw the
    // exact same per-site sequences they always did.
    shootdown_rng = Rng(splitmix64(sm));
}

bool
FaultPlan::failPoolAlloc(double fill)
{
    if (_spec.pool_fill < 0.0 || fill < _spec.pool_fill)
        return false;
    // Probabilistic past the threshold, so the exact failing
    // allocation varies with the plan seed (and a retry under a fresh
    // fault seed fails elsewhere — or squeaks through).
    if (!pool_rng.chance(0.5))
        return false;
    ++_counters.pool_failures;
    traceFire("fault.pool_alloc",
              static_cast<std::int64_t>(fill * 1000));
    return true;
}

bool
FaultPlan::forceKickExhaustion()
{
    if (_spec.kick_prob <= 0.0)
        return false;
    // Never twice in a row: settle() re-places homeless entries one
    // at a time, and forcing every re-placement to fail would turn
    // its drain loop into livelock-by-injection.
    if (last_kick_forced) {
        last_kick_forced = false;
        return false;
    }
    last_kick_forced = kick_rng.chance(_spec.kick_prob);
    if (last_kick_forced) {
        ++_counters.forced_kicks;
        traceFire("fault.kick_exhaustion",
                  static_cast<std::int64_t>(_counters.forced_kicks));
    }
    return last_kick_forced;
}

bool
FaultPlan::forceResizeWindow()
{
    if (_spec.resize_prob <= 0.0
        || _counters.forced_resizes >= MAX_FORCED_RESIZES)
        return false;
    if (!resize_rng.chance(_spec.resize_prob))
        return false;
    ++_counters.forced_resizes;
    traceFire("fault.resize_window",
              static_cast<std::int64_t>(_counters.forced_resizes));
    return true;
}

Cycles
FaultPlan::memSpikeCycles()
{
    if (_spec.mem_prob <= 0.0 || !mem_rng.chance(_spec.mem_prob))
        return 0;
    ++_counters.mem_spikes;
    traceFire("fault.mem_spike",
              static_cast<std::int64_t>(_spec.mem_spike_cycles));
    return _spec.mem_spike_cycles;
}

Cycles
FaultPlan::shootdownAckDelay()
{
    if (_spec.shootdown_prob <= 0.0
        || !shootdown_rng.chance(_spec.shootdown_prob))
        return 0;
    ++_counters.dropped_acks;
    traceFire("fault.shootdown_ack",
              static_cast<std::int64_t>(_spec.shootdown_delay_cycles));
    return _spec.shootdown_delay_cycles;
}

} // namespace necpt
