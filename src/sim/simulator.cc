#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/error.hh"
#include "common/log.hh"
#include "sim/coalescer.hh"
#include "sim/critical_path.hh"
#include "sim/sched.hh"
#include "sim/timeseries.hh"
#include "workloads/churn_sources.hh"
#include "walk/machine.hh"
#include "walk/baselines.hh"
#include "walk/hybrid.hh"
#include "walk/native_ecpt.hh"
#include "walk/native_radix.hh"
#include "walk/nested_ecpt.hh"
#include "walk/nested_hpt.hh"
#include "walk/nested_radix.hh"
#include "walk/shadow.hh"

namespace necpt
{

namespace
{

using HostClock = std::chrono::steady_clock;

/** Host seconds from @p from to @p to. */
double
hostSeconds(HostClock::time_point from, HostClock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Non-memory retire cost per instruction of the 4-issue core. */
constexpr double base_cpi = 0.3;

/** Fraction of a data access's latency the ROB leaves exposed. */
constexpr double data_exposure = 0.3;

} // namespace

Simulator::Simulator(const ExperimentConfig &config,
                     const SimParams &params_in)
    : cfg(config), params(params_in)
{
    if (params.cores < 1 || params.cores > 8)
        throw ConfigError(strfmt("cores must be in [1, 8], got %d",
                                 params.cores));
    if (params.max_outstanding_walks < 1
        || params.max_outstanding_walks
               > SimParams::max_outstanding_walks_limit)
        throw ConfigError(
            strfmt("max_outstanding_walks must be in [1, %d], got %d",
                   SimParams::max_outstanding_walks_limit,
                   params.max_outstanding_walks));
    // The stats reset fires when a core reaches warmup_accesses, so an
    // empty measured window would report the warm-up as measured.
    if (params.measure_accesses == 0)
        throw ConfigError("measure accesses must be at least 1");
    // Each core runs warm-up plus measure accesses in all; a sum that
    // wraps would end the run early and mislabel its window.
    if (params.warmup_accesses
        > std::numeric_limits<std::uint64_t>::max()
              - params.measure_accesses)
        throw ConfigError(strfmt(
            "warmup_accesses + measure_accesses overflows (%llu + %llu)",
            (unsigned long long)params.warmup_accesses,
            (unsigned long long)params.measure_accesses));
    // The serialized model never has a second same-page miss in
    // flight, so coalescing would silently do nothing.
    if (params.walk_coalescing && params.max_outstanding_walks == 1)
        throw ConfigError(
            "walk coalescing needs max_outstanding_walks > 1");
}

std::unique_ptr<Walker>
Simulator::makeWalker(int core)
{
    switch (cfg.walker) {
      case WalkerKind::NativeRadix:
        return std::make_unique<NativeRadixWalker>(*sys, *mem, core);
      case WalkerKind::NestedRadix:
        return std::make_unique<NestedRadixWalker>(*sys, *mem, core);
      case WalkerKind::NativeEcpt:
        return std::make_unique<NativeEcptWalker>(*sys, *mem, core);
      case WalkerKind::NestedEcpt:
        return std::make_unique<NestedEcptWalker>(*sys, *mem, core,
                                                  cfg.features);
      case WalkerKind::NestedHybrid:
        return std::make_unique<HybridWalker>(*sys, *mem, core);
      case WalkerKind::AgilePagingIdeal:
        return std::make_unique<AgilePagingWalker>(*sys, *mem, core);
      case WalkerKind::PomTlb:
        if (!pom)
            pom = std::make_unique<PomTlb>(sys->hostPool());
        return std::make_unique<PomTlbWalker>(*sys, *mem, core, *pom);
      case WalkerKind::FlatNested:
        return std::make_unique<FlatNestedWalker>(*sys, *mem, core);
      case WalkerKind::ShadowPaging:
        return std::make_unique<ShadowPagingWalker>(*sys, *mem, core);
      case WalkerKind::NestedHpt:
        return std::make_unique<NestedHptWalker>(*sys, *mem, core);
    }
    panic("unknown WalkerKind");
}

void
Simulator::buildMachine(std::uint64_t footprint, const std::string &app)
{
    SystemConfig scfg = cfg.system;
    scfg.seed = params.seed;
    if (params.faults.enabled()) {
        const std::uint64_t fs =
            params.fault_seed ? params.fault_seed : params.seed;
        fault_plan = std::make_unique<FaultPlan>(params.faults, fs);
        scfg.fault_plan = fault_plan.get();
    }
    // Size the physical pools to the workload (the Table-2 machine has
    // 80GB; we only model what the scaled footprint needs). Multi-core
    // mode runs one instance per core.
    const std::uint64_t guest_need = alignUp(
        footprint * 2 * static_cast<std::uint64_t>(params.cores)
            + (1ULL << 30),
        1ULL << 30);
    if (scfg.guest_phys_bytes < guest_need)
        scfg.guest_phys_bytes = guest_need;
    if (scfg.host_phys_bytes < guest_need + (2ULL << 30))
        scfg.host_phys_bytes = guest_need + (2ULL << 30);
    // Every simulated access carries a guest- or host-physical
    // address, and each data cache tags lines below its address limit.
    const std::uint64_t phys_bytes =
        std::max(scfg.guest_phys_bytes, scfg.host_phys_bytes);
    for (const CacheConfig *level :
         {&cfg.memory.l1, &cfg.memory.l2, &cfg.memory.l3}) {
        const std::uint64_t limit = SetAssocCache::addressLimit(*level);
        if (phys_bytes > limit)
            throw ConfigError(strfmt(
                "%s tags cover %llu bytes of physical memory, the "
                "machine has %llu",
                level->name.c_str(), (unsigned long long)limit,
                (unsigned long long)phys_bytes));
    }
    // Coverage is app-dependent (Section 9.1 / Figures 12, 14).
    scfg.guest_thp_coverage = appGuestThpCoverage(app);
    scfg.host_thp_coverage = appHostThpCoverage(app);

    sys = std::make_unique<NestedSystem>(scfg);
    mem = std::make_unique<MemoryHierarchy>(cfg.memory, params.cores);
    if (fault_plan)
        mem->setFaultPlan(fault_plan.get());
    tlb.clear();
    walkers.clear();
    for (int core = 0; core < params.cores; ++core) {
        tlb.push_back(std::make_unique<TlbHierarchy>(cfg.tlb));
        walkers.push_back(makeWalker(core));
    }

    if (params.tracer) {
        for (auto &w : walkers)
            w->setTracer(params.tracer);
        mem->setTracer(params.tracer);
        if (EcptPageTable *g = sys->guestEcpt())
            g->setTracer(params.tracer);
        if (EcptPageTable *h = sys->hostEcpt())
            h->setTracer(params.tracer);
        if (fault_plan)
            fault_plan->setTracer(params.tracer);
    }

    // Coherence subsystem: built only when churn is armed, so an
    // all-defaults spec stays byte-identical to a build without it.
    coherence.reset();
    churn_sources.clear();
    if (params.churn.enabled()) {
        coherence = std::make_unique<CoherenceController>(params.churn);
        for (int core = 0; core < params.cores; ++core)
            coherence->attachCore(tlb[core].get(), walkers[core].get());
        if (pom)
            coherence->attachPom(pom.get());
        if (fault_plan)
            coherence->setFaultPlan(fault_plan.get());
        if (params.tracer)
            coherence->setTracer(params.tracer);
        churn_sources = makeChurnSources(params.churn, params.seed);
    }
}

Simulator::~Simulator() = default;

void
Simulator::resetStats()
{
    mem->resetStats();
    for (auto &t : tlb)
        t->resetStats();
    for (auto &w : walkers)
        w->resetStats();
    if (pom)
        pom->resetStats();
}

SimResult
Simulator::run(const std::string &app)
{
    const auto footprint =
        makeWorkload(app, params.scale_denominator)->info()
            .footprint_bytes;
    return runWith(app,
                   [&](std::uint64_t seed) {
                       return makeWorkload(
                           app, params.scale_denominator, seed);
                   },
                   footprint);
}

SimResult
Simulator::runWith(const std::string &label,
                   const WorkloadFactory &factory,
                   std::uint64_t footprint_bytes)
{
    const HostClock::time_point started = HostClock::now();
    buildMachine(footprint_bytes, label);

    /**
     * The event loop: shared state plus its handlers. Every scheduled
     * event is a small trivially-copyable functor capturing {Loop*, a
     * few scalars}, so it fits the scheduler's inline storage and the
     * steady-state loop never heap-allocates; the per-core walk
     * completion callees live in CoreState, satisfying FunctionRef's
     * outlives-the-call contract. (A local class so the handlers keep
     * runWith's access to the simulator's members.)
     */
    struct Loop
    {
        /** Walk-completion callee for one slot of a core's walk table
         *  (persistent: machines hold a FunctionRef to it). */
        struct DoneHandler
        {
            Loop *loop = nullptr;
            int core = 0;
            int slot = 0;

            void
            operator()(WalkMachine &done) const
            {
                loop->walkDone(core, slot, done);
            }
        };

        /** Per-core execution state. */
        struct CoreState
        {
            std::unique_ptr<Workload> workload;
            double cycle = 0.0;
            std::uint64_t instructions = 0;
            std::uint64_t accesses = 0; //!< issued (walk may still fly)
            double measure_start_cycle = 0.0;
            std::uint64_t measure_start_instr = 0;
            /** Overlap mode: the in-flight walks (same-page misses
             *  park on them under walk_coalescing), each slot's
             *  completion callee, and the completion watermark the
             *  walks' data accesses have pushed the core to. */
            WalkCoalescer walks;
            std::vector<DoneHandler> done;
            bool parked = false;
            double watermark = 0.0;
            /** MLP-cap stall accounting: when the park began, and the
             *  cycles this core has spent parked in total. */
            double park_start = 0.0;
            double stall_cycles = 0.0;
        };

        struct StepEv
        {
            Loop *loop;
            int core;
            void operator()() const { loop->step(core); }
        };

        struct RetireEv
        {
            Loop *loop;
            int core;
            int slot;
            double at;
            void operator()() const { loop->retire(core, slot, at); }
        };

        struct ChurnEv
        {
            Loop *loop;
            int idx;
            double at;
            void operator()() const { loop->churnFire(idx, at); }
        };

        struct RoundDoneEv
        {
            Loop *loop;
            double at;
            void operator()() const { loop->roundDone(at); }
        };

        struct SampleEv
        {
            Loop *loop;
            double at;
            void operator()() const { loop->sampleFire(at); }
        };

        Simulator &sim;
        std::vector<CoreState> cores{};
        EventScheduler sched{};
        std::uint64_t total = 0;
        bool overlap = false;
        bool stats_reset = false;
        /** Host time of the stats reset: warm-up ends here. */
        HostClock::time_point measure_started{};
        std::uint64_t inflight_peak = 0;
        /** Registry backing the interval sampler (null = sampling off;
         *  owned by runWith, claimed fresh per run). */
        MetricsRegistry *sample_reg = nullptr;
        /** Shootdown round in flight (at most one; rounds chain). */
        CoherenceController::RoundPlan round{};
        bool round_active = false;
        int next_initiator = 0;

        /// @name Translation churn (events at priority -2: mutations
        /// and invalidations land before the memory pump and any core
        /// step at the same cycle)
        /// @{
        enum : std::int64_t { coherence_prio = -2 };

        /** Is any core still issuing accesses? Churn re-arms only
         *  while the kernels run, so the event loop terminates. */
        bool
        coresActive() const
        {
            for (const CoreState &cs : cores)
                if (cs.accesses < total)
                    return true;
            return false;
        }

        void
        churnFire(int idx, double at)
        {
            ChurnSource &src = *sim.churn_sources[idx];
            if (sim.params.tracer)
                sim.params.tracer->setNow(static_cast<Cycles>(at));
            src.fire(*sim.sys, *sim.coherence);
            maybeStartRound(at);
            if (coresActive()) {
                const double next =
                    at + static_cast<double>(src.period());
                sched.at(next, coherence_prio, ChurnEv{this, idx, next});
            }
        }

        /** Launch a shootdown round if work is queued and none flies. */
        void
        maybeStartRound(double now)
        {
            if (round_active || !sim.coherence->pending())
                return;
            const int initiator = next_initiator;
            next_initiator = (next_initiator + 1)
                % static_cast<int>(cores.size());
            round = sim.coherence->beginRound(initiator,
                                              static_cast<Cycles>(now));
            if (!round.started)
                return;
            round_active = true;
            // Protocol cost lands on the cores' clocks: the initiator
            // stalls until the last ack (sw; zero under hw coherence),
            // every responder burns its handler time. The cores'
            // already-scheduled step events simply find a later clock.
            cores[initiator].cycle +=
                static_cast<double>(round.initiator_stall);
            if (round.responder_cost > 0) {
                for (std::size_t c = 0; c < cores.size(); ++c)
                    if (static_cast<int>(c) != initiator)
                        cores[c].cycle +=
                            static_cast<double>(round.responder_cost);
            }
            sched.at(static_cast<double>(round.completion),
                     coherence_prio,
                     RoundDoneEv{this,
                                 static_cast<double>(round.completion)});
        }

        void
        roundDone(double at)
        {
            sim.coherence->finishRound(round);
            round_active = false;
            // Chain: invalidations queued while this round flew go out
            // in the next one.
            maybeStartRound(at);
        }
        /// @}

        /// @name Interval metrics sampling (necpt-timeseries-v1)
        /// The sampler event runs at the lowest priority so a sample
        /// observes every completed same-cycle event — the property
        /// that makes the stream byte-identical at any --jobs level.
        /// @{
        enum : std::int64_t
        {
            sample_prio = std::numeric_limits<std::int64_t>::max()
        };

        void
        sampleFire(double at)
        {
            sim.params.timeseries->record(at,
                                          sample_reg->scalarSnapshot());
            if (coresActive()) {
                const double next =
                    at
                    + static_cast<double>(
                          sim.params.timeseries->interval());
                sched.at(next, sample_prio, SampleEv{this, next});
            }
        }
        /// @}

        /** Schedule core @p core's next step at @p at (the caller
         *  is the core's running event, or the run's start). */
        void
        scheduleStep(int core, double at)
        {
            sched.at(at, core, StepEv{this, core});
            if (sim.params.critical_path)
                sim.params.critical_path->stepScheduled(core, at);
        }

        /** One step = one workload access on one core. */
        void
        step(int core)
        {
            const SimParams &params = sim.params;
            CoreState &cs = cores[core];
            // Events emitted outside a timed walk phase (cuckoo
            // inserts, fault sites) are stamped with the leading
            // core's clock.
            if (params.tracer)
                params.tracer->setNow(static_cast<Cycles>(cs.cycle));
            if (params.critical_path)
                params.critical_path->stepRuns(core);

            if (cs.accesses == params.warmup_accesses && !stats_reset) {
                // Warm-up fault-ins may have left elastic resizes in
                // flight; background migration finishes them before
                // the measured region (Section 8 steady state). Reset
                // stats when the first core crosses the boundary.
                sim.sys->quiesce();
                sim.resetStats();
                for (auto &other : cores) {
                    other.measure_start_cycle = other.cycle;
                    other.measure_start_instr = other.instructions;
                }
                stats_reset = true;
                measure_started = HostClock::now();
            }

            const MemAccess access = cs.workload->next();
            sim.sys->ensureResident(access.vaddr);

            cs.cycle += base_cpi * access.inst_gap;
            cs.instructions += access.inst_gap + 1;
            ++cs.accesses;

            // Address translation (serializes the access in the legacy
            // model; overlapped walks only park the core at the cap).
            auto tlb_result = sim.tlb[core]->lookup(access.vaddr);
            Translation translation = tlb_result.translation;
            cs.cycle += static_cast<double>(tlb_result.latency);

            if (tlb_result.hit || !overlap) {
                if (!tlb_result.hit) {
                    const WalkResult walk = sim.walkers[core]->translate(
                        access.vaddr, static_cast<Cycles>(cs.cycle));
                    cs.cycle += static_cast<double>(walk.latency);
                    translation = walk.translation;
                    sim.tlb[core]->install(access.vaddr, translation);
                    if (params.critical_path) {
                        // Serialized walks complete inside the step.
                        params.critical_path->noteWalk(core, walk.ledger,
                                                       walk.latency);
                    }
                }

                // The data access itself; OoO hides most of its
                // latency.
                const Addr hpa = translation.apply(access.vaddr);
                const AccessResult data = sim.mem->access(
                    hpa, static_cast<Cycles>(cs.cycle), Requester::Core,
                    core);
                cs.cycle += static_cast<double>(data.latency)
                    * data_exposure;

                if (cs.accesses < total)
                    scheduleStep(core, cs.cycle);
                return;
            }

            // Walk-MSHR merge: a walk for this 4KB page is already in
            // flight — park on its entry instead of walking again. The
            // waiter's TLB install + data access happen when the
            // primary retires; it neither counts toward the MLP cap
            // nor parks the core (merging is the parallelism win).
            if (params.walk_coalescing) {
                const Addr page = WalkCoalescer::pageOf(access.vaddr);
                if (WalkCoalescer::Entry *e = cs.walks.find(page)) {
                    e->waiters.push_back({access.vaddr, cs.cycle});
                    if (cs.accesses < total)
                        scheduleStep(core, cs.cycle);
                    return;
                }
            }

            // Overlap mode, L2-TLB miss: issue a resumable walk and
            // keep going. The access's data fetch rides on the
            // completion.
            const int slot = cs.walks.open(sim.walkers[core]->startWalk(
                access.vaddr, static_cast<Cycles>(cs.cycle)));
            WalkCoalescer::Entry &walk = cs.walks.at(slot);
            walk.epoch = sim.coherence ? sim.coherence->epoch() : 0;
            if (params.critical_path)
                walk.issue = params.critical_path->running(core);
            const int inflight = static_cast<int>(cs.walks.size());
            inflight_peak = std::max<std::uint64_t>(inflight_peak, inflight);
            walk.machine->onDone(cs.done[static_cast<std::size_t>(slot)]);

            if (cs.accesses < total) {
                if (inflight < params.max_outstanding_walks) {
                    scheduleStep(core, cs.cycle);
                } else {
                    cs.parked = true;
                    cs.park_start = cs.cycle;
                }
            }
        }

        /** Completion is a scheduled event at the walk's end cycle
         *  (not run inline from machine code): the TLB install, the
         *  access's data fetch, and the slot release all happen at the
         *  simulated time the walk finished, and the machine can be
         *  retired there because its own frames are long off the
         *  stack. */
        void
        walkDone(int core, int slot, WalkMachine &done)
        {
            const double end = static_cast<double>(done.endCycle());
            sched.at(end, core, RetireEv{this, core, slot, end});
        }

        /** Retire the walk in slot @p slot of core @p core's table,
         *  scheduled at its end cycle @p at. */
        void
        retire(int core, int slot, double at)
        {
            // Machines are pinned to their core's arena: the machine
            // this retire releases recycles into the same core's
            // walker pool.
            NECPT_ASSERT(sim.walkers[core]->coreIndex() == core);
            CoreState &owner = cores[core];
            WalkCoalescer::Entry &walk = owner.walks.at(slot);
            const WalkMachine &m = *walk.machine;
            // The retire depends on the step that issued the walk, not
            // on the pump (or replay) whose drain finished it, so the
            // critical path runs through the walk's whole latency.
            if (sim.params.critical_path)
                sim.params.critical_path->retire(
                    core, walk.issue, at, m.result().ledger,
                    m.result().latency);
            Translation tr = m.result().translation;
            double end = at;
            // An invalidation overlapping this walk's VA landed while
            // it was in flight: whatever the walk read may be stale.
            // Replay against the mutated tables (refaulting first if
            // the page was unmapped outright) and charge the replay's
            // latency — the hardware would observe the same race via
            // its page-walk coherence checks and redo the walk.
            if (sim.coherence
                && sim.coherence->invalidatedSince(m.va(), walk.epoch)) {
                sim.coherence->noteWalkReplay();
                sim.sys->ensureResident(m.va());
                const WalkResult replay = sim.walkers[core]->translate(
                    m.va(), static_cast<Cycles>(end));
                tr = replay.translation;
                end += static_cast<double>(replay.latency);
                if (sim.params.tracer) {
                    sim.params.tracer->instant(
                        "shootdown.replay", TraceCat::Shootdown,
                        static_cast<std::uint32_t>(core),
                        static_cast<Cycles>(end),
                        {{"latency",
                          static_cast<std::int64_t>(replay.latency)}});
                }
            }
            // A machine may finish invalid only when churn unmapped
            // its page mid-walk, and the shootdown ring is
            // conservative, so the replay above must have repaired it.
            NECPT_ASSERT(tr.valid);
            sim.tlb[core]->install(m.va(), tr);
            const Addr hpa = tr.apply(m.va());
            const AccessResult data = sim.mem->access(
                hpa, static_cast<Cycles>(end), Requester::Core, core);
            owner.watermark = std::max(
                owner.watermark,
                end + static_cast<double>(data.latency)
                          * data_exposure);
            // Fan the translation out to every coalesced waiter, in
            // append order: data fetch at the primary's completion
            // (post-replay, so a waiter can never retire a translation
            // its primary had to redo), and the waiter's whole latency
            // binned as AttrCause::Coalesce. No per-waiter TLB
            // install: the primary installed the same 4K page at this
            // very cycle just above, so repeating it would only touch
            // the LRU state it already owns.
            if (!walk.waiters.empty()) {
                for (const WalkCoalescer::Waiter &w : walk.waiters) {
                    const AccessResult wd = sim.mem->access(
                        tr.apply(w.va), static_cast<Cycles>(end),
                        Requester::Core, core);
                    owner.watermark = std::max(
                        owner.watermark,
                        end + static_cast<double>(wd.latency)
                                  * data_exposure);
                    sim.walkers[core]->recordCoalescedWalk(
                        static_cast<Cycles>(
                            std::max(0.0, end - w.issue_cycle)));
                }
                sim.walkers[core]->noteCoalesceFanout(
                    walk.waiters.size());
            }
            if (owner.parked) {
                owner.parked = false;
                owner.cycle = std::max(owner.cycle, end);
                const double stalled = owner.cycle - owner.park_start;
                if (stalled > 0) {
                    owner.stall_cycles += stalled;
                    if (sim.params.critical_path) {
                        sim.params.critical_path->noteStall(
                            core, at, stalled, m.result().ledger);
                    }
                }
                scheduleStep(core, owner.cycle);
            }
            owner.walks.close(slot);
        }
    };

    Loop loop{*this};
    // Interval sampling reads the live registry; claim one fresh per
    // run so repeated runWith calls never collide on entry names.
    MetricsRegistry sample_reg;
    if (params.timeseries) {
        exportMetrics(sample_reg);
        loop.sample_reg = &sample_reg;
    }
    loop.cores.resize(static_cast<std::size_t>(params.cores));
    for (int core = 0; core < params.cores; ++core) {
        Loop::CoreState &cs = loop.cores[core];
        cs.workload = factory(0xB0B + static_cast<std::uint64_t>(core));
        cs.workload->setup(*sys);
        cs.walks = WalkCoalescer(params.max_outstanding_walks);
        for (int slot = 0; slot < params.max_outstanding_walks; ++slot)
            cs.done.push_back(Loop::DoneHandler{&loop, core, slot});
    }
    // Memory completions pump straight from the hierarchy's completion
    // heap, at priority -1: walks resume after same-cycle coherence
    // events and before any core steps. Serialized walks drain inside
    // their own step, so this only ever finds overlapped walks' work.
    loop.sched.setCompletionSource(mem.get());
    // Fault the whole dataset in before warm-up, like the real
    // applications do at initialization (Section 8 measures steady
    // state after the region of interest is reached).
    const HostClock::time_point built = HostClock::now();
    sys->prefaultAll();
    const HostClock::time_point prefaulted = HostClock::now();

    loop.total = params.warmup_accesses + params.measure_accesses;
    loop.overlap = params.max_outstanding_walks > 1;
    loop.stats_reset = params.warmup_accesses == 0;
    if (loop.stats_reset) {
        sys->quiesce();
        loop.measure_started = HostClock::now();
    }

    // All cores start at cycle 0; the (cycle, priority=core, seq)
    // order advances the earliest core, lowest index first on ties —
    // the legacy interleaving.
    for (int core = 0; core < params.cores; ++core)
        loop.scheduleStep(core, 0.0);
    // Churn daemons wake for the first time one period in; each firing
    // re-arms itself while any core still issues accesses.
    for (std::size_t i = 0; i < churn_sources.size(); ++i) {
        const double first =
            static_cast<double>(churn_sources[i]->period());
        loop.sched.at(first, Loop::coherence_prio,
                      Loop::ChurnEv{&loop, static_cast<int>(i), first});
    }
    // The sampler ticks every interval at the lowest priority, so each
    // snapshot observes every completed same-cycle event.
    if (params.timeseries) {
        const double first =
            static_cast<double>(params.timeseries->interval());
        loop.sched.at(first, Loop::sample_prio,
                      Loop::SampleEv{&loop, first});
    }

    while (!loop.sched.empty())
        loop.sched.runNext();
    const HostClock::time_point finished = HostClock::now();
    for (auto &cs : loop.cores)
        NECPT_ASSERT(cs.walks.empty());
    const bool overlap = loop.overlap;
    const std::uint64_t inflight_peak = loop.inflight_peak;

    SimResult result;
    result.config = cfg.name;
    result.app = label;
    // Execution time: the mean measured-core interval (cores run the
    // same length of trace; the mean is robust to tail skew). In
    // overlap mode a core's clock may trail its last walk's data
    // access — the watermark covers the difference.
    double cycles_sum = 0;
    std::uint64_t instr_sum = 0;
    for (const Loop::CoreState &cs : loop.cores) {
        cycles_sum += std::max(cs.cycle, cs.watermark)
            - cs.measure_start_cycle;
        instr_sum += cs.instructions - cs.measure_start_instr;
    }
    result.cycles =
        static_cast<Cycles>(cycles_sum / params.cores);
    result.instructions = instr_sum;
    fillResult(result);
    result.host_time = {hostSeconds(started, built),
                        hostSeconds(built, prefaulted),
                        hostSeconds(prefaulted, loop.measure_started),
                        hostSeconds(loop.measure_started, finished)};

    // Walk-overlap characterization: total walker busy-cycles spread
    // over the measured interval and core count. Serialized walks
    // (the default) keep this at or below 1; overlapped walks push
    // it above.
    result.walk_inflight_max =
        overlap ? inflight_peak : (result.walks ? 1 : 0);
    result.walk_inflight_avg =
        result.cycles
            ? static_cast<double>(result.mmu_busy_cycles)
                  / (static_cast<double>(result.cycles)
                     * static_cast<double>(params.cores))
            : 0.0;
    result.metrics["walk.inflight"] = result.walk_inflight_avg;
    result.metrics["walk.inflight.max"] =
        static_cast<double>(result.walk_inflight_max);
    // MLP-cap stalls: cycles cores sat parked because the in-flight
    // walk cap was reached (0 in serialized mode). The headline number
    // for diagnosing mlp>1 slowdowns — see EXPERIMENTS.md.
    double stall_sum = 0;
    for (const Loop::CoreState &cs : loop.cores)
        stall_sum += cs.stall_cycles;
    result.metrics["walk.stall.cycles"] = stall_sum;

    // Under injection, prove the design absorbed every fault: the
    // ECPT/CWT cross-check is the Section 4.4 staleness argument run
    // against the final state (throws InvariantViolation otherwise).
    if (fault_plan)
        sys->auditInvariants();
    return result;
}

void
Simulator::fillResult(SimResult &result)
{
    // Aggregate walker statistics across cores.
    WalkerStats ws;
    for (const auto &w : walkers) {
        const WalkerStats &s = w->stats();
        ws.walks.inc(s.walks.value());
        ws.mmu_requests.inc(s.mmu_requests.value());
        ws.busy_cycles += s.busy_cycles;
        for (int k = 0; k < 4; ++k) {
            ws.guest_kind[k].inc(s.guest_kind[k].value());
            ws.host_kind[k].inc(s.host_kind[k].value());
        }
        for (int i = 0; i < 3; ++i) {
            ws.step_sum[i] += s.step_sum[i];
            ws.step_cnt[i] += s.step_cnt[i];
            ws.step_lat[i] += s.step_lat[i];
        }
        for (int c = 0; c < num_attr_causes; ++c)
            ws.attr_cycles[static_cast<std::size_t>(c)] +=
                s.attr_cycles[static_cast<std::size_t>(c)];
        ws.coalesced.inc(s.coalesced.value());
    }
    result.mmu_busy_cycles = ws.busy_cycles;
    result.walks = ws.walks.value();
    result.mmu_requests = ws.mmu_requests.value();
    result.walk_latency = walkers[0]->stats().walk_latency;

    std::uint64_t l1m = 0, l2m = 0;
    for (const auto &t : tlb) {
        l1m += t->l1Stats().misses();
        l2m += t->l2Stats().misses();
    }
    result.l1_tlb_misses = l1m;
    result.l2_tlb_misses = l2m;

    const double ki = static_cast<double>(result.instructions) / 1000.0;
    if (ki > 0) {
        result.mmu_rpki = static_cast<double>(result.mmu_requests) / ki;
        std::uint64_t l2_misses = 0, l2_mmu_misses = 0;
        for (int c = 0; c < static_cast<int>(tlb.size()); ++c) {
            l2_misses += mem->l2(c).stats(Requester::Core).misses()
                + mem->l2(c).stats(Requester::Mmu).misses();
            l2_mmu_misses += mem->l2(c).stats(Requester::Mmu).misses();
        }
        const auto &l3_core = mem->l3().stats(Requester::Core);
        const auto &l3_mmu = mem->l3().stats(Requester::Mmu);
        result.l2_mpki = static_cast<double>(l2_misses) / ki;
        result.l3_mpki = static_cast<double>(l3_core.misses()
                                             + l3_mmu.misses()) / ki;
        result.mmu_l2_misses_pki =
            static_cast<double>(l2_mmu_misses) / ki;
    }
    result.avg_mshrs = mem->avgMshrsInUse();
    result.max_mshrs = mem->maxMshrsInUse();
    result.dram_row_hit_rate = mem->dram().rowHitRate();

    // Walk-kind fractions (Figure 14).
    std::uint64_t gtotal = 0, htotal = 0;
    for (int k = 0; k < 4; ++k) {
        gtotal += ws.guest_kind[k].value();
        htotal += ws.host_kind[k].value();
    }
    for (int k = 0; k < 4; ++k) {
        result.guest_kind_frac[k] =
            gtotal ? static_cast<double>(ws.guest_kind[k].value())
                    / static_cast<double>(gtotal) : 0.0;
        result.host_kind_frac[k] =
            htotal ? static_cast<double>(ws.host_kind[k].value())
                    / static_cast<double>(htotal) : 0.0;
    }
    for (int s = 0; s < 3; ++s)
        result.step_avg[s] = ws.avgStepAccesses(s);

    // Nested-ECPT cache introspection (Section 9.4, Figure 12); core 0
    // is representative (cores run the same workload).
    if (auto *necpt_walker =
            dynamic_cast<NestedEcptWalker *>(walkers[0].get())) {
        result.stc_hit_rate =
            necpt_walker->shortcutCache().stats().rate();
        result.gcwc_pud_hit =
            necpt_walker->guestCwc().stats(PageSize::Page1G).rate();
        result.gcwc_pmd_hit =
            necpt_walker->guestCwc().stats(PageSize::Page2M).rate();
        result.hcwc_pud_hit =
            necpt_walker->hostCwcStep3().stats(PageSize::Page1G).rate();
        result.hcwc_pmd_hit =
            necpt_walker->hostCwcStep3().stats(PageSize::Page2M).rate();
        result.hcwc_pte_step1_hit =
            necpt_walker->hostCwcStep1().stats(PageSize::Page4K).rate();
        result.hcwc_pte_step3_hit =
            necpt_walker->hostCwcStep3().stats(PageSize::Page4K).rate();
        result.hcwc_pte_step3_accesses =
            necpt_walker->hostCwcStep3()
                .stats(PageSize::Page4K)
                .accesses();
        const auto &ctl = necpt_walker->adaptiveController();
        const auto &pte_hist = ctl.pteMonitor().history();
        const auto &pmd_hist = ctl.pmdMonitor().history();
        if (!pte_hist.empty()) {
            double sum = 0;
            for (double r : pte_hist)
                sum += r;
            result.adaptive_pte_rate =
                sum / static_cast<double>(pte_hist.size());
        } else {
            result.adaptive_pte_rate = result.hcwc_pte_step3_hit;
        }
        if (!pmd_hist.empty()) {
            double sum = 0;
            for (double r : pmd_hist)
                sum += r;
            result.adaptive_pmd_rate =
                sum / static_cast<double>(pmd_hist.size());
        } else {
            result.adaptive_pmd_rate = result.hcwc_pmd_hit;
        }
    }

    result.guest_structure_bytes = sys->guestStructureBytes();
    result.host_structure_bytes = sys->hostStructureBytes();
    result.pte_bytes_total = sys->guestPteBytes() + sys->hostPteBytes();
    result.guest_faults = sys->guestFaults();
    result.host_faults = sys->hostFaults();
    // Re-publish the scalars under the unified dotted names (the
    // expressions above are the single source; the map just aliases
    // them, so bench output stays byte-identical either way).
    auto &m = result.metrics;
    for (int k = 0; k < 4; ++k) {
        const std::string kn = walkKindName(static_cast<WalkKind>(k));
        m["walk.kind.guest." + kn + ".frac"] = result.guest_kind_frac[k];
        m["walk.kind.host." + kn + ".frac"] = result.host_kind_frac[k];
    }
    for (int s = 0; s < 3; ++s)
        m["walk.step" + std::to_string(s + 1) + ".avg_probes"] =
            result.step_avg[s];
    m["stc.hitrate"] = result.stc_hit_rate;
    m["cwc.gcwc.pud.hitrate"] = result.gcwc_pud_hit;
    m["cwc.gcwc.pmd.hitrate"] = result.gcwc_pmd_hit;
    m["cwc.hcwc_step3.pud.hitrate"] = result.hcwc_pud_hit;
    m["cwc.hcwc_step3.pmd.hitrate"] = result.hcwc_pmd_hit;
    m["cwc.hcwc_step1.pte.hitrate"] = result.hcwc_pte_step1_hit;
    m["cwc.hcwc_step3.pte.hitrate"] = result.hcwc_pte_step3_hit;
    m["cwc.hcwc_step3.pte.accesses"] =
        static_cast<double>(result.hcwc_pte_step3_accesses);
    m["adaptive.pte.rate"] = result.adaptive_pte_rate;
    m["adaptive.pmd.rate"] = result.adaptive_pmd_rate;

    // Cycle attribution (summed across cores). Conservation makes
    // attr.total.cycles equal mmu_busy_cycles exactly — Figure 10
    // reads it directly.
    std::uint64_t attr_total = 0;
    for (int c = 0; c < num_attr_causes; ++c)
        attr_total += ws.attr_cycles[static_cast<std::size_t>(c)];
    m["attr.total.cycles"] = static_cast<double>(attr_total);
    for (int c = 0; c < num_attr_causes; ++c) {
        const std::uint64_t cyc =
            ws.attr_cycles[static_cast<std::size_t>(c)];
        const std::string an =
            std::string("attr.")
            + attrCauseName(static_cast<AttrCause>(c));
        m[an + ".cycles"] = static_cast<double>(cyc);
        m[an + ".share"] = attr_total
            ? static_cast<double>(cyc) / static_cast<double>(attr_total)
            : 0.0;
    }
    for (int s = 0; s < 3; ++s)
        m["walk.step" + std::to_string(s + 1) + ".cycles"] =
            static_cast<double>(ws.step_lat[s]);
    // Walk-MSHR merges (0 unless walk_coalescing is on — the key is
    // emitted unconditionally so metric sets stay schema-stable).
    m["walk.coalesced"] = static_cast<double>(ws.coalesced.value());

    // Coherence scalars exist only when churn is armed, so churn-off
    // runs emit byte-identical metric maps.
    if (coherence) {
        const auto &cs = coherence->stats();
        m["shootdown.rounds"] = static_cast<double>(cs.rounds);
        m["shootdown.invalidations"] =
            static_cast<double>(cs.invalidations);
        m["shootdown.entries.dropped"] =
            static_cast<double>(cs.tlb_entries + cs.pom_entries);
        m["shootdown.acks"] = static_cast<double>(cs.acks);
        m["shootdown.acks.dropped"] =
            static_cast<double>(cs.acks_dropped);
        m["shootdown.walk_replays"] =
            static_cast<double>(cs.walk_replays);
        m["shootdown.latency.mean"] = cs.round_latency.mean();
        m["churn.ops"] = static_cast<double>(cs.churn_ops);
    }
}


void
Simulator::exportMetrics(MetricsRegistry &reg, const std::string &prefix)
{
    NECPT_ASSERT(sys && mem && !walkers.empty());
    const int n = static_cast<int>(walkers.size());
    for (int c = 0; c < n; ++c) {
        // Multi-core machines get a per-core prefix; the common case
        // keeps the short names (walk.nested_ecpt.step1.probes).
        const std::string p =
            n > 1 ? prefix + "core" + std::to_string(c) + "." : prefix;
        walkers[c]->registerMetrics(reg, p);
        reg.addHitMiss(p + "tlb.l1", &tlb[c]->l1Stats());
        reg.addHitMiss(p + "tlb.l2", &tlb[c]->l2Stats());
    }
    if (pom)
        reg.addHitMiss(prefix + "tlb.pom", &pom->stats());
    if (coherence)
        coherence->registerMetrics(reg, prefix);
    mem->registerMetrics(reg, prefix);

    const EcptPageTable *g = sys->guestEcpt();
    const EcptPageTable *h = sys->hostEcpt();
    if (g)
        g->registerMetrics(reg, prefix + "guest.");
    if (h)
        h->registerMetrics(reg, prefix + "host.");
    if (g || h) {
        reg.addCounter(prefix + "cuckoo.kicks", [g, h] {
            std::uint64_t total = 0;
            for (PageSize size : all_page_sizes) {
                if (g)
                    total += g->tableOf(size).rehashMoves();
                if (h)
                    total += h->tableOf(size).rehashMoves();
            }
            return total;
        }, "total cuckoo displacements across address spaces");
    }

    const NestedSystem *s = sys.get();
    reg.addCounter(prefix + "pt.guest.bytes",
                   [s] { return s->guestStructureBytes(); },
                   "guest translation-structure footprint (Section 9.5)");
    reg.addCounter(prefix + "pt.host.bytes",
                   [s] { return s->hostStructureBytes(); });
    reg.addCounter(prefix + "pt.guest.faults",
                   [s] { return s->guestFaults(); });
    reg.addCounter(prefix + "pt.host.faults",
                   [s] { return s->hostFaults(); });
}

SimResult
runSim(const ExperimentConfig &config, const SimParams &params,
       const std::string &app)
{
    Simulator sim(config, params);
    return sim.run(app);
}

} // namespace necpt
