/**
 * @file
 * The control plane of translation coherence: one CoherenceController
 * per simulation owns the batcher and directory, applies invalidation
 * batches to every attached translation structure (per-core TLBs and
 * walk caches, the shared POM-TLB), and computes when each shootdown
 * round completes under the selected protocol:
 *
 *  - sw (IPI shootdown): the initiator broadcasts, every other core
 *    takes the interrupt, runs the invalidation handler, and acks;
 *    the round completes — and the initiator resumes — when the last
 *    ack lands. A dropped ack (fault site `shootdown:PROB`) re-sends
 *    after a timeout, stretching the round.
 *  - hw (hardware translation coherence): invalidations ride the
 *    coherence network to the structures that actually hold stale
 *    entries; the cost scales with the sharer count and the initiator
 *    never stalls.
 *
 * The controller is pure bookkeeping plus cycle arithmetic — the
 * Simulator schedules the rounds it plans on its scheduler and
 * charges the initiator stall to the right core.
 *
 * Churn mutations and shootdown rounds run as priority -2 events on
 * the simulator's one (cycle, priority, sequence) event queue
 * (sim/sched.hh). Within a cycle they land before the memory pump (-1)
 * and before any core's step or retire (priority = core index), so
 * every core observes an invalidation batch at the same simulated
 * instant.
 */

#ifndef NECPT_COHERENCE_CONTROLLER_HH
#define NECPT_COHERENCE_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/churn.hh"
#include "coherence/shootdown.hh"
#include "common/fault.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/tlb.hh"
#include "walk/walker.hh"

namespace necpt
{

/** Churn operations, for the per-source counters. */
enum class ChurnOp : std::uint8_t
{
    Migrate,
    BalloonOut,
    BalloonIn,
    ThpPromote,
    ThpDemote,
    Protect,
};

class CoherenceController
{
  public:
    /// @name Shootdown latency model (cycles)
    /// IPI numbers follow the ~μs-scale interrupt delivery + handler
    /// costs reported for Linux shootdowns; the hw numbers follow the
    /// message-on-coherence-network argument of HATRIC (ISCA'17).
    /// @{
    static constexpr Cycles sw_ipi_cycles = 400;     //!< delivery
    static constexpr Cycles sw_handler_cycles = 200; //!< remote handler
    static constexpr Cycles sw_ack_cycles = 100;     //!< ack return
    static constexpr Cycles hw_base_cycles = 60;     //!< message launch
    static constexpr Cycles hw_per_sharer_cycles = 40;
    /// @}

    explicit CoherenceController(const ChurnSpec &spec);

    const ChurnSpec &spec() const { return spec_; }

    /// @name Wiring (Simulator::buildMachine)
    /// @{
    void
    attachCore(TlbHierarchy *tlb, Walker *walker)
    {
        cores.push_back(CoreSide{tlb, walker});
    }

    void attachPom(PomTlb *pom) { pom_ = pom; }
    void setFaultPlan(FaultPlan *plan) { fault_plan = plan; }
    void setTracer(TraceBuffer *tracer) { tracer_ = tracer; }
    /// @}

    /// @name Source side (churn generators)
    /// @{
    /** Queue an invalidation for the next shootdown round. */
    void queueInvalidation(const Invalidation &inv);

    /** Tally one churn operation covering @p pages pages. */
    void noteChurnOp(ChurnOp op, std::uint64_t pages);

    bool pending() const { return !batcher.empty(); }
    /// @}

    /// @name Round planning (Simulator event loop)
    /// @{
    /** A planned shootdown round: functional invalidation already
     *  applied, completion time computed; the caller schedules it. */
    struct RoundPlan
    {
        bool started = false;
        int initiator = -1;
        Cycles begin = 0;
        Cycles completion = 0;      //!< absolute: last ack / hw done
        Cycles initiator_stall = 0; //!< sw only; hw never stalls
        Cycles responder_cost = 0;  //!< per-responder handler time (sw)
        int invalidations = 0;
        int sharers = 0; //!< structures that actually dropped entries
        std::size_t entries_dropped = 0;
    };

    /**
     * Pop a batch and run a round from @p initiator at @p now: apply
     * every invalidation to the attached structures, record it in the
     * directory, and price the round under the spec's mode. Returns
     * started == false when nothing was queued.
     */
    RoundPlan beginRound(int initiator, Cycles now);

    /** Close the books on a planned round (histograms + trace span). */
    void finishRound(const RoundPlan &round);

    /** A retired walk found itself invalidated mid-flight. */
    void noteWalkReplay() { ++stats_.walk_replays; }
    /// @}

    /// @name Race detection (walk retire path)
    /// @{
    std::uint64_t epoch() const { return directory.epoch(); }

    bool
    invalidatedSince(Addr gva, std::uint64_t since_epoch) const
    {
        return directory.invalidatedSince(gva, since_epoch);
    }
    /// @}

    /** Register the shootdown.* and churn.* entries. */
    void registerMetrics(MetricsRegistry &reg, const std::string &prefix);

    struct Stats
    {
        std::uint64_t rounds = 0;
        std::uint64_t invalidations = 0; //!< queued by sources
        /** Dropped from per-core TLBs and walk caches together. */
        std::uint64_t tlb_entries = 0;
        std::uint64_t pom_entries = 0;
        std::uint64_t acks = 0;         //!< sw responder acks
        std::uint64_t acks_dropped = 0; //!< re-sent after timeout
        std::uint64_t walk_replays = 0;
        std::uint64_t churn_ops = 0;
        std::uint64_t migrate_pages = 0;
        std::uint64_t balloon_out_pages = 0;
        std::uint64_t balloon_in_pages = 0;
        std::uint64_t thp_promotes = 0;
        std::uint64_t thp_demotes = 0;
        std::uint64_t protect_pages = 0;
        Histogram round_latency{100, 64};  //!< 100-cycle bins
        Histogram ack_latency{100, 64};    //!< per-responder (sw)
        Histogram batch_occupancy{1, 33};  //!< invalidations per round
    };

    const Stats &stats() const { return stats_; }

  private:
    struct CoreSide
    {
        TlbHierarchy *tlb = nullptr;
        Walker *walker = nullptr;
    };

    /** Apply @p inv everywhere, adding each core's drops to
     *  core_drops; @return entries dropped in all. */
    std::size_t applyInvalidation(const Invalidation &inv);

    ChurnSpec spec_;
    std::vector<CoreSide> cores;
    PomTlb *pom_ = nullptr;
    FaultPlan *fault_plan = nullptr;
    TraceBuffer *tracer_ = nullptr;

    ShootdownBatcher batcher;
    CoherenceDirectory directory;
    /** The round's per-core drops (TLBs and private walk caches),
     *  kept so a round allocates nothing. */
    std::vector<std::size_t> core_drops;
    Stats stats_;
};

} // namespace necpt

#endif // NECPT_COHERENCE_CONTROLLER_HH
