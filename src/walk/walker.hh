/**
 * @file
 * Page-walk state machines: common interface, statistics, and timing
 * helpers shared by every page-table organization's walker.
 *
 * A walker is invoked on an L2-TLB miss and returns the translation
 * plus the cycles the MMU stayed busy servicing it (Figure 10/11
 * metrics). Memory traffic is issued through the shared MemoryHierarchy
 * so walks and demand accesses compete for real cache space and DRAM
 * banks.
 */

#ifndef NECPT_WALK_WALKER_HH
#define NECPT_WALK_WALKER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cycle_ledger.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"
#include "mem/hierarchy.hh"
#include "mmu/walk_caches.hh"
#include "os/system.hh"

namespace necpt
{

/** ECPT walk-pruning outcome classes (Section 9.4, Figure 14). */
enum class WalkKind : std::uint8_t
{
    Direct = 0,   //!< 1 access: size and way known
    Size = 1,     //!< all d ways of one ECPT
    Partial = 2,  //!< up to all ways of two ECPTs
    Complete = 3, //!< all ways of all ECPTs
};

inline const char *
walkKindName(WalkKind kind)
{
    switch (kind) {
      case WalkKind::Direct: return "direct";
      case WalkKind::Size: return "size";
      case WalkKind::Partial: return "partial";
      case WalkKind::Complete: return "complete";
    }
    return "?";
}

/** The outcome of one hardware walk. */
struct WalkResult
{
    Translation translation; //!< effective gVA -> hPA mapping
    Cycles latency = 0;      //!< L2-TLB-miss to completion
    int mem_accesses = 0;    //!< foreground MMU requests issued
    /** Where the latency went: the bins sum exactly to it. */
    CycleLedger ledger;
};

/** Charge one memory-latency decomposition into a ledger. The split
 *  sums to the access/batch latency, so charging it keeps the walk's
 *  cycle-conservation invariant intact. */
inline void
chargeMemBreakdown(CycleLedger &ledger, const MemBreakdown &bd)
{
    ledger.charge(AttrCause::Issue, bd.issue);
    ledger.charge(AttrCause::Mshr, bd.mshr);
    ledger.charge(AttrCause::Cache, bd.cache);
    ledger.charge(AttrCause::DramQueue, bd.dram_queue);
    ledger.charge(AttrCause::DramService, bd.dram_service);
    ledger.charge(AttrCause::DramBus, bd.dram_bus);
    ledger.charge(AttrCause::Fault, bd.fault);
}

/** Aggregated per-walker statistics. */
struct WalkerStats
{
    WalkerStats()
    {
        attr_hist.reserve(num_attr_causes);
        for (int c = 0; c < num_attr_causes; ++c)
            attr_hist.emplace_back(20, 64);
    }

    Counter walks;
    Counter mmu_requests;     //!< all MMU hierarchy requests (+background)
    Cycles busy_cycles = 0;   //!< sum of walk latencies (Figure 10)
    Histogram walk_latency{20, 64}; //!< Figure 11 bins (20-cycle wide)

    /** Walk-MSHR coalescing (SimParams::walk_coalescing): waiters
     *  merged onto an in-flight same-page walk instead of walking
     *  themselves, and the waiters-per-primary distribution (sampled
     *  once per primary that had at least one waiter). A waiter counts
     *  as a walk — its whole latency bins to AttrCause::Coalesce — so
     *  walks ≈ L2-TLB-misses and ledger conservation both survive. */
    Counter coalesced;
    Histogram coalesce_waiters{1, 16};

    /** Cycle attribution: total walk cycles per cause, and each
     *  cause's per-walk distribution ("attr.<cause>" registry names).
     *  Conservation: the attr_cycles sum equals busy_cycles. */
    std::array<std::uint64_t, num_attr_causes> attr_cycles{};
    std::vector<Histogram> attr_hist; //!< one {20,64} per cause

    /** Figure 14: walk-kind tallies for the guest and host sides. */
    Counter guest_kind[4];
    Counter host_kind[4];

    /** Section 9.4: parallel accesses per nested-ECPT step. */
    std::uint64_t step_sum[3] = {0, 0, 0};
    std::uint64_t step_cnt[3] = {0, 0, 0};
    /** Latency spent in each step's probe phase (diagnostics). */
    std::uint64_t step_lat[3] = {0, 0, 0};

    double
    avgStepAccesses(int step) const
    {
        return step_cnt[step]
            ? static_cast<double>(step_sum[step])
                  / static_cast<double>(step_cnt[step])
            : 0.0;
    }

    void
    reset()
    {
        walks.reset();
        mmu_requests.reset();
        busy_cycles = 0;
        walk_latency.reset();
        coalesced.reset();
        coalesce_waiters.reset();
        for (int i = 0; i < 4; ++i) {
            guest_kind[i].reset();
            host_kind[i].reset();
        }
        for (int i = 0; i < 3; ++i) {
            step_sum[i] = 0;
            step_cnt[i] = 0;
            step_lat[i] = 0;
        }
        attr_cycles.fill(0);
        for (Histogram &h : attr_hist)
            h.reset();
    }
};

class WalkMachine;
class ImmediateWalkMachine;

/** Returns a machine to its owner's pool (or deletes an unpooled one).
 *  Defined in walk/machine.hh — TUs destroying a WalkMachinePtr must
 *  include it. */
struct WalkMachineReleaser
{
    void operator()(WalkMachine *machine) const;
};

/** Owner handle for an in-flight walk. Dropping it recycles the
 *  machine into its walker's free list rather than deleting it, so
 *  steady-state walks reuse a warm arena instead of hitting the heap. */
using WalkMachinePtr = std::unique_ptr<WalkMachine, WalkMachineReleaser>;

/**
 * Abstract walker.
 */
class Walker
{
  public:
    Walker(NestedSystem &system, MemoryHierarchy &memory, int core_id)
        : sys(system), mem(memory), core(core_id)
    {}

    virtual ~Walker();

    /** Service an L2-TLB miss for @p gva starting at cycle @p now. */
    virtual WalkResult translate(Addr gva, Cycles now) = 0;

    /**
     * Begin a resumable walk for @p gva at cycle @p now. The returned
     * machine may already be done (synchronous designs adapt through
     * ImmediateWalkMachine); asynchronous designs return a machine
     * parked on in-flight memory transactions that completes as the
     * owner drains the hierarchy. The machine borrows this walker and
     * must not outlive it; releasing the handle recycles it.
     */
    virtual WalkMachinePtr startWalk(Addr gva, Cycles now);

    /** Human-readable configuration name. */
    virtual std::string name() const = 0;

    /**
     * Shootdown receive side: drop every private walk-cache entry
     * (PWC/NPWC/NTLB/STC/CWC) derived from guest-virtual pages in
     * [gva, gva+bytes) or from the host backing of guest-physical
     * pages in [gpa, gpa+gpa_bytes). The base walker caches nothing.
     * @return entries invalidated.
     */
    virtual std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr gpa,
                                std::uint64_t gpa_bytes)
    {
        (void)gva;
        (void)bytes;
        (void)gpa;
        (void)gpa_bytes;
        return 0;
    }

    WalkerStats &stats() { return stats_; }
    const WalkerStats &stats() const { return stats_; }

    /**
     * Start a measured window: clear the walk statistics and the hit
     * counters of every cache this walker owns. Cache contents and the
     * adaptive controller's rate monitors are machine state and stay.
     */
    virtual void resetStats() { stats_.reset(); }

    /**
     * The simulated core this walker (and every machine it pools)
     * belongs to. Walk machines are pinned to their walker's core
     * arena: startWalk() recycles only machines this walker released,
     * so machine state never migrates between cores (the simulator
     * asserts it when a walk retires).
     */
    int coreIndex() const { return core; }

    /** Attach the walk-level event tracer (null detaches; default). */
    void setTracer(TraceBuffer *tracer) { tracer_ = tracer; }
    TraceBuffer *tracer() const { return tracer_; }

    /** Dotted-name component for this walker's registry entries. */
    virtual const char *metricsSlug() const { return "walker"; }

    /**
     * Register this walker's statistics under "<prefix>walk.<slug>.*".
     * Subclasses call the base version then add their own caches.
     */
    virtual void
    registerMetrics(MetricsRegistry &reg, const std::string &prefix)
    {
        const std::string p = prefix + "walk." + metricsSlug() + ".";
        WalkerStats *s = &stats_;
        reg.addCounter(p + "walks", [s] { return s->walks.value(); });
        reg.addCounter(p + "mmu_requests",
                       [s] { return s->mmu_requests.value(); });
        reg.addCounter(p + "busy_cycles", [s] {
            return static_cast<std::uint64_t>(s->busy_cycles);
        });
        reg.addHistogram(p + "latency", &s->walk_latency,
                         "walk latency distribution (Figure 11 bins)");
        reg.addCounter(p + "coalesced",
                       [s] { return s->coalesced.value(); },
                       "walks merged onto an in-flight same-page walk");
        reg.addHistogram(p + "coalesce.waiters", &s->coalesce_waiters,
                         "waiters fanned out per coalesced primary");
        for (int k = 0; k < 4; ++k) {
            const char *kn = walkKindName(static_cast<WalkKind>(k));
            reg.addCounter(p + "kind.guest." + kn,
                           [s, k] { return s->guest_kind[k].value(); });
            reg.addCounter(p + "kind.host." + kn,
                           [s, k] { return s->host_kind[k].value(); });
        }
        for (int i = 0; i < 3; ++i) {
            const std::string sp = p + "step" + std::to_string(i + 1)
                                 + ".";
            reg.addCounter(sp + "probes",
                           [s, i] { return s->step_sum[i]; });
            reg.addCounter(sp + "phases",
                           [s, i] { return s->step_cnt[i]; });
            reg.addCounter(sp + "cycles",
                           [s, i] { return s->step_lat[i]; });
            reg.addValue(sp + "avg_probes",
                         [s, i] { return s->avgStepAccesses(i); });
        }
        for (int c = 0; c < num_attr_causes; ++c) {
            const std::string ap =
                p + "attr."
                + attrCauseName(static_cast<AttrCause>(c));
            reg.addCounter(ap + ".cycles",
                           [s, c] { return s->attr_cycles[c]; },
                           "walk cycles attributed to this cause");
            reg.addHistogram(ap, &s->attr_hist[c],
                             "per-walk cycles of this cause");
        }
    }

    /**
     * Record one coalesced waiter (walk-MSHR merge): a translation
     * request that parked on an in-flight same-page walk and completed
     * when that primary retired, @p latency cycles after it was
     * issued. The waiter is a walk whose entire latency is
     * AttrCause::Coalesce — no probe traffic happened on its behalf —
     * so the walks ≈ L2-TLB-misses invariant and the attr/busy
     * conservation identity both hold exactly.
     */
    void
    recordCoalescedWalk(Cycles latency)
    {
        ++stats_.walks;
        ++stats_.coalesced;
        stats_.busy_cycles += latency;
        stats_.walk_latency.sample(latency);
        constexpr auto c = static_cast<std::size_t>(AttrCause::Coalesce);
        stats_.attr_cycles[c] += latency;
        stats_.attr_hist[c].sample(latency);
    }

    /** Sample the waiters-per-primary distribution at entry close
     *  (called once per primary walk that coalesced anything). */
    void
    noteCoalesceFanout(std::uint64_t waiters)
    {
        stats_.coalesce_waiters.sample(waiters);
    }

    /** MMU structure lookup latency (Table 2: 4 cycles RT). */
    static constexpr Cycles mmu_cache_latency = 4;
    /** Hash unit latency (Table 2: 2 cycles). */
    static constexpr Cycles hash_latency = 2;

  protected:
    /** One sequential (dependent) MMU memory access. Charges the
     *  walk's ledger with the exact latency decomposition. */
    Cycles
    seqAccess(Addr hpa, Cycles now)
    {
        ++stats_.mmu_requests;
        MemBreakdown bd;
        const AccessResult r =
            mem.access(hpa, now, Requester::Mmu, core, &bd);
        chargeMemBreakdown(ledger_, bd);
        return r.latency;
    }

    /** seqAccess charging the whole latency to one cause — for
     *  accesses that *are* the cause (the POM-TLB's in-DRAM probe). */
    Cycles
    seqAccessAs(AttrCause cause, Addr hpa, Cycles now)
    {
        ++stats_.mmu_requests;
        const Cycles lat =
            mem.access(hpa, now, Requester::Mmu, core).latency;
        ledger_.charge(cause, lat);
        return lat;
    }

    /** Charge an analytic latency addition (cache probe, hash unit,
     *  NTLB lookup, VM exit) to the current walk's ledger. */
    void charge(AttrCause cause, Cycles cycles)
    {
        ledger_.charge(cause, cycles);
    }

    /** Background traffic (CWC/CWT refills): consumes bandwidth and
     *  cache space but does not extend the walk. @p traced: the walk
     *  is sampled, so its requests are traced. */
    void
    backgroundAccess(AddrSpan addrs, Cycles now, bool traced = false)
    {
        BatchResult r = mem.batchAccess(addrs, now, core, traced);
        stats_.mmu_requests.inc(static_cast<std::uint64_t>(r.requests));
    }

    /**
     * Deepest radix level whose entry a PWC supplies for @p va: the
     * walk skips fetching every level >= the returned value (a PWC
     * hit at level L hands over that entry's content, i.e. the base
     * of the L-1 table). Returns top+2 when nothing is cached.
     */
    static int
    pwcSkipLevel(PageWalkCache &pwc, const RadixSteps &steps, Addr va,
                 int min_cached_level = 2)
    {
        int skip_through = 7; // above any supported tree
        for (const RadixStep &step : steps) {
            if (step.level >= min_cached_level
                && pwc.lookup(step.level, va)) {
                skip_through = step.level;
            }
        }
        return skip_through;
    }

    /**
     * Sampling gate, called once at the start of each walk: decides
     * whether this walk's events are recorded (see
     * TraceBuffer::sampleWalk). The walk keeps the answer and passes
     * it to whatever emits on its behalf.
     */
    bool sampleWalk() { return tracer_ && tracer_->sampleWalk(); }

    /**
     * Record a finished walk in the common statistics and fold its
     * cycle ledger (the walker's own, or @p walk_ledger for designs
     * whose machines carry one each) into the attr.* aggregates. The
     * fold asserts conservation: the ledger's bins must sum exactly to
     * the walk's latency. The ledger moves into @p result, which
     * carries it to whoever reads the walk (stall accounting, the
     * critical-path recorder, a composite walker folding a nested
     * walk into its own). A @p traced (sampled) walk also records its
     * span.
     */
    void
    finishWalk(WalkResult &result, Cycles start, Cycles end,
               int foreground_accesses, bool traced = false,
               CycleLedger *walk_ledger = nullptr)
    {
        result.latency = end - start;
        result.mem_accesses = foreground_accesses;
        ++stats_.walks;
        stats_.busy_cycles += result.latency;
        stats_.walk_latency.sample(result.latency);
        CycleLedger &led = walk_ledger ? *walk_ledger : ledger_;
        NECPT_ASSERT(led.total() == result.latency);
        for (int c = 0; c < num_attr_causes; ++c) {
            const auto cycles = led.bins()[static_cast<size_t>(c)];
            stats_.attr_cycles[static_cast<size_t>(c)] += cycles;
            stats_.attr_hist[static_cast<size_t>(c)].sample(cycles);
        }
        result.ledger = led;
        led.reset();
        if (traced) {
            const AttrCause top = result.ledger.dominant();
            tracer_->span("walk", TraceCat::Walk,
                          static_cast<std::uint32_t>(core), start,
                          result.latency,
                          {{"accesses", foreground_accesses},
                           {"attr_top", 0, attrCauseName(top)},
                           {"attr_top_cycles",
                            static_cast<std::int64_t>(
                                result.ledger.bin(top))}});
        }
    }

    NestedSystem &sys;
    MemoryHierarchy &mem;
    int core;
    WalkerStats stats_;
    TraceBuffer *tracer_ = nullptr;
    /** The in-progress walk's cycle bins (serialized designs; walkers
     *  whose machines overlap carry one ledger per machine instead).
     *  finishWalk() folds and resets, so it is always clean between
     *  walks. */
    CycleLedger ledger_;

  private:
    friend class ImmediateWalkMachine;
    /** Arena deleter, out of line (machine.cc): the machine type is
     *  incomplete here, and the default deleter would be instantiated
     *  in every TU that constructs a walker. */
    struct ImmMachineDeleter
    {
        void operator()(ImmediateWalkMachine *machine) const;
    };
    /** Pool behind the default startWalk(): released immediate
     *  machines go back on the free list for the next TLB miss. */
    std::vector<std::unique_ptr<ImmediateWalkMachine, ImmMachineDeleter>>
        imm_arena;
    std::vector<ImmediateWalkMachine *> imm_free;
};

} // namespace necpt

#endif // NECPT_WALK_WALKER_HH
