/**
 * @file
 * Critical-path analysis: each core's spine, summed as the run goes.
 *
 * A core's spine is the chain of scheduling edges that ends at its
 * last step or retire event, and it explains *why* the core took as
 * long as it did. Every such event's parent is an event of the same
 * core: a step is scheduled by the core's previous step or by the
 * retire that unparks it, and a retire hangs off the step that issued
 * its walk (not the completion pump or replay whose drain finished
 * the walk). No churn, round, sample or pump event is ever a core
 * event's parent, so a spine never leaves its core, and a running
 * Spine summary per chain end is all the recorder keeps: one for each
 * core's latest event, one for its pending step (a core has at most
 * one), and one per in-flight walk for the step that issued it, which
 * the walk's entry in the simulator's walk table carries. Memory is
 * therefore proportional to cores and in-flight walks, not to run
 * length. Edge lengths are measured between the events' scheduled
 * cycles and charged to the kind of the event at the edge's head.
 *
 * The recorder also keeps per-walk annotations (which attribution
 * cause dominated each walk, how long each core sat parked at its MLP
 * cap) and renders a per-core text report: total spine length broken
 * down by event kind, plus the top-K longest stall episodes.
 *
 * Everything is simulated-time based and single-threaded per run, so
 * the report is byte-deterministic at any --jobs level.
 */

#ifndef NECPT_SIM_CRITICAL_PATH_HH
#define NECPT_SIM_CRITICAL_PATH_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cycle_ledger.hh"

namespace necpt
{

/** The kinds of event a spine holds. */
enum class SimEventKind : std::uint8_t
{
    EvStep,   //!< core issues its next instruction
    EvRetire, //!< a walk's translation retires into the core
};

constexpr int num_sim_event_kinds = 2;

const char *simEventKindName(SimEventKind kind);

/** The running summary of a chain of scheduling edges. */
struct Spine
{
    double start = 0; //!< scheduled cycle of the chain's first event
    double end = 0;   //!< scheduled cycle of its last event
    /** Edge cycles, by the kind of the event at each edge's head. */
    std::array<double, num_sim_event_kinds> cycles{};
    std::uint64_t edges = 0;

    /** This chain extended to an event of @p kind scheduled at @p at. */
    Spine
    then(double at, SimEventKind kind) const
    {
        Spine s = *this;
        const double dt = at - end;
        s.cycles[static_cast<int>(kind)] += dt > 0 ? dt : 0;
        ++s.edges;
        s.end = at;
        return s;
    }
};

/**
 * Accumulates each core's spine plus walk/stall annotations and
 * renders the per-core critical-path report.
 */
class CriticalPathRecorder
{
  public:
    /** @param top_k stall episodes listed per core in the report. */
    explicit CriticalPathRecorder(int cores, int top_k = 5);

    /** Core @p core's running event (nothing, before the core's first
     *  event) scheduled the core's next step at @p at. */
    void stepScheduled(int core, double at);

    /** Core @p core's pending step runs. */
    void stepRuns(int core);

    /** The spine of core @p core's running event: a walk it issues
     *  carries this until it retires. */
    const Spine &running(int core) { return state(core).latest; }

    /** A serialized walk finished inside core @p core's running step:
     *  which cause dominated its ledger, and its latency. */
    void noteWalk(int core, const CycleLedger &led, std::uint64_t latency);

    /** The walk issued on spine @p issue retires on core @p core at
     *  its scheduled cycle @p at; noteWalk() for the rest. */
    void retire(int core, const Spine &issue, double at,
                const CycleLedger &led, std::uint64_t latency);

    /**
     * Core @p core resumed issuing after stalling @p cycles at its MLP
     * cap, unparked by the retire scheduled at @p at; @p led is the
     * unblocking walk's ledger (may be empty).
     */
    void noteStall(int core, double at, double cycles,
                   const CycleLedger &led);

    /** Render the full report (all cores) as plain text. */
    std::string report() const;

  private:
    struct Stall
    {
        double cycles = 0;
        double at = 0;  //!< cycle the stall ended
        int cause = -1; //!< dominant AttrCause index, or -1
    };

    struct CoreState
    {
        bool started = false; //!< has any step of this core run
        Spine latest;         //!< the core's last step or retire
        Spine pending;        //!< its pending step
        std::uint64_t walks = 0;
        std::uint64_t walk_cycles = 0;
        std::array<std::uint64_t, num_attr_causes> dominant_walks{};
        double stall_cycles = 0;
        std::uint64_t stall_episodes = 0;
        std::vector<Stall> top_stalls; //!< kept sorted, size <= top_k
    };

    /** Core @p core's state; the core must be one of the run's. */
    CoreState &state(int core);

    std::vector<CoreState> cores_;
    int top_k_;
};

} // namespace necpt

#endif // NECPT_SIM_CRITICAL_PATH_HH
