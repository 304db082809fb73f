#include "sim/critical_path.hh"

#include <algorithm>
#include <cstdio>

#include "common/log.hh"

namespace necpt
{

const char *
simEventKindName(SimEventKind kind)
{
    switch (kind) {
      case SimEventKind::EvStep: return "step";
      case SimEventKind::EvRetire: return "retire";
    }
    return "?";
}

CriticalPathRecorder::CriticalPathRecorder(int cores, int top_k)
    : cores_(static_cast<std::size_t>(cores > 0 ? cores : 1)),
      top_k_(top_k > 0 ? top_k : 1)
{}

CriticalPathRecorder::CoreState &
CriticalPathRecorder::state(int core)
{
    NECPT_ASSERT(core >= 0
                 && static_cast<std::size_t>(core) < cores_.size());
    return cores_[static_cast<std::size_t>(core)];
}

void
CriticalPathRecorder::stepScheduled(int core, double at)
{
    CoreState &cs = state(core);
    cs.pending = cs.started ? cs.latest.then(at, SimEventKind::EvStep)
                            : Spine{at, at};
}

void
CriticalPathRecorder::stepRuns(int core)
{
    CoreState &cs = state(core);
    cs.latest = cs.pending;
    cs.started = true;
}

void
CriticalPathRecorder::noteWalk(int core, const CycleLedger &led,
                               std::uint64_t latency)
{
    CoreState &cs = state(core);
    ++cs.walks;
    cs.walk_cycles += latency;
    if (led.total() > 0)
        ++cs.dominant_walks[static_cast<int>(led.dominant())];
}

void
CriticalPathRecorder::retire(int core, const Spine &issue, double at,
                             const CycleLedger &led,
                             std::uint64_t latency)
{
    state(core).latest = issue.then(at, SimEventKind::EvRetire);
    noteWalk(core, led, latency);
}

void
CriticalPathRecorder::noteStall(int core, double at, double cycles,
                                const CycleLedger &led)
{
    if (cycles <= 0)
        return;
    CoreState &cs = state(core);
    cs.stall_cycles += cycles;
    ++cs.stall_episodes;
    const Stall s{cycles, at,
                  led.total() > 0 ? static_cast<int>(led.dominant())
                                  : -1};
    // Longest first, then earliest; an equal stall stays behind the
    // ones recorded before it.
    const auto later = std::find_if(
        cs.top_stalls.begin(), cs.top_stalls.end(),
        [&s](const Stall &e) {
            return e.cycles != s.cycles ? e.cycles < s.cycles
                                        : e.at > s.at;
        });
    if (later - cs.top_stalls.begin() >= top_k_)
        return;
    cs.top_stalls.insert(later, s);
    if (cs.top_stalls.size() > static_cast<std::size_t>(top_k_))
        cs.top_stalls.pop_back();
}

namespace
{

std::string
fmt1(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

std::string
pct(double part, double whole)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  whole > 0 ? 100.0 * part / whole : 0.0);
    return buf;
}

} // namespace

std::string
CriticalPathRecorder::report() const
{
    std::string out;
    out += "critical-path report (longest event-dependency chain per "
           "core; top-";
    out += std::to_string(top_k_);
    out += " stalls)\n";

    constexpr int num_kinds = num_sim_event_kinds;
    for (std::size_t core = 0; core < cores_.size(); ++core) {
        const CoreState &cs = cores_[core];
        out += "core " + std::to_string(core) + ":";
        if (!cs.started) {
            out += " no recorded events\n";
            continue;
        }

        const Spine &path = cs.latest;
        const double spine = path.end - path.start;
        out += " spine " + fmt1(spine) + " cycles over " +
               std::to_string(path.edges) + " edges (ends cycle " +
               fmt1(path.end) + ")\n";

        // Kind shares, largest first; deterministic tie-break on the
        // enum order.
        int order[num_kinds];
        for (int k = 0; k < num_kinds; ++k)
            order[k] = k;
        std::sort(order, order + num_kinds, [&](int a, int b) {
            if (path.cycles[a] != path.cycles[b])
                return path.cycles[a] > path.cycles[b];
            return a < b;
        });
        out += "  spine by event kind:";
        bool any = false;
        for (int i = 0; i < num_kinds; ++i) {
            const int k = order[i];
            if (path.cycles[k] <= 0)
                continue;
            out += std::string(" ") +
                   simEventKindName(static_cast<SimEventKind>(k)) +
                   " " + pct(path.cycles[k], spine) + " (" +
                   fmt1(path.cycles[k]) + ")";
            any = true;
        }
        if (!any)
            out += " (empty)";
        out += "\n";

        out += "  walks retired: " + std::to_string(cs.walks) +
               " (sum latency " + std::to_string(cs.walk_cycles) +
               " cycles)";
        std::uint64_t dom_total = 0;
        for (std::uint64_t n : cs.dominant_walks)
            dom_total += n;
        if (dom_total > 0) {
            int corder[num_attr_causes];
            for (int c = 0; c < num_attr_causes; ++c)
                corder[c] = c;
            std::sort(corder, corder + num_attr_causes,
                      [&](int a, int b) {
                          if (cs.dominant_walks[a] != cs.dominant_walks[b])
                              return cs.dominant_walks[a] >
                                     cs.dominant_walks[b];
                          return a < b;
                      });
            out += "; dominant cause:";
            for (int i = 0; i < num_attr_causes; ++i) {
                const int c = corder[i];
                if (!cs.dominant_walks[c])
                    continue;
                out += std::string(" ") +
                       attrCauseName(static_cast<AttrCause>(c)) + " " +
                       std::to_string(cs.dominant_walks[c]) + " (" +
                       pct(static_cast<double>(cs.dominant_walks[c]),
                           static_cast<double>(dom_total)) +
                       ")";
            }
        }
        out += "\n";

        out += "  mlp-cap stalls: " + fmt1(cs.stall_cycles) +
               " cycles over " + std::to_string(cs.stall_episodes) +
               " episodes (" + pct(cs.stall_cycles, path.end) +
               " of core time)\n";
        for (std::size_t i = 0; i < cs.top_stalls.size(); ++i) {
            const Stall &s = cs.top_stalls[i];
            out += "    " + std::to_string(i + 1) + ") " +
                   fmt1(s.cycles) + " cycles ending at cycle " +
                   fmt1(s.at);
            if (s.cause >= 0) {
                out += ", unblocked by a walk dominated by ";
                out += attrCauseName(static_cast<AttrCause>(s.cause));
            }
            out += "\n";
        }
    }
    return out;
}

} // namespace necpt
