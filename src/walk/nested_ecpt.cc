#include "walk/nested_ecpt.hh"

#include "common/log.hh"
#include "walk/machine.hh"

namespace necpt
{

namespace
{

/** Table-2 CWC geometries. */
std::array<std::size_t, num_page_sizes>
step1CwcGeometry(const NestedEcptFeatures &feat)
{
    if (feat.step1_pte_hcwt)
        return {4, 0, 0}; // Advanced: 4 PTE entries
    return {0, 16, 2};    // Plain: PUD/PMD info only
}

std::array<std::size_t, num_page_sizes>
step3CwcGeometry(const NestedEcptFeatures &feat)
{
    if (feat.step3_adaptive_pte)
        return {16, 4, 2}; // Advanced: 16 PTE + 4 PMD + 2 PUD
    return {0, 16, 2};     // Plain
}

} // namespace

NestedEcptWalker::NestedEcptWalker(NestedSystem &system,
                                   MemoryHierarchy &memory, int core_id,
                                   const NestedEcptFeatures &features)
    : Walker(system, memory, core_id),
      feat(features),
      gcwc({0, 16, 2}), // Table 2: gCWC = 16 PMD + 2 PUD
      hcwc_step1(step1CwcGeometry(features)),
      hcwc_step3(step3CwcGeometry(features)),
      stc(features.stc_entries)
{
    NECPT_ASSERT(sys.guestEcpt() && sys.hostEcpt());
}

void
NestedEcptWalker::registerMetrics(MetricsRegistry &reg,
                                  const std::string &prefix)
{
    Walker::registerMetrics(reg, prefix);

    reg.addHitMiss(prefix + "stc", &stc.stats(),
                   "shortcut translation cache (Section 4.1)");

    const struct
    {
        const char *slug;
        const CuckooWalkCache *cwc;
    } cwcs[] = {
        {"cwc.gcwc", &gcwc},
        {"cwc.hcwc_step1", &hcwc_step1},
        {"cwc.hcwc_step3", &hcwc_step3},
    };
    for (const auto &c : cwcs) {
        for (PageSize size : all_page_sizes) {
            if (!c.cwc->caches(size))
                continue;
            reg.addHitMiss(prefix + c.slug + "." + pageLevelName(size),
                           &c.cwc->stats(size));
        }
    }

    reg.addCounter(prefix + "adaptive.transitions",
                   [this] { return adaptive.transitions(); },
                   "PTE-hCWT enable<->disable flips (Section 4.2)");
    reg.addValue(prefix + "adaptive.pte_enabled", [this] {
        return adaptive.pteCachingEnabled() ? 1.0 : 0.0;
    });
    reg.addRates(prefix + "adaptive.pte.window_rates",
                 &adaptive.pteMonitor(),
                 "Step-3 PTE hCWC windowed hit rates (Figure 12)");
    reg.addRates(prefix + "adaptive.pmd.window_rates",
                 &adaptive.pmdMonitor(),
                 "Step-3 PMD hCWC windowed hit rates (Figure 12)");
}

void
NestedEcptWalker::tracePlan(const char *cache, const CuckooWalkCache &cwc,
                            const EcptProbePlan &plan, Cycles t)
{
    const auto core_id = static_cast<std::uint32_t>(core);
    for (int s = 0; s < num_page_sizes; ++s) {
        if (!cwc.caches(all_page_sizes[s]))
            continue;
        tracer()->instant(plan.cwc_missed[s] ? "cwc.miss" : "cwc.hit",
                          TraceCat::Cwc, core_id, t,
                          {{"cache", 0, cache},
                           {"level", 0, pageLevelName(all_page_sizes[s])},
                           {"kind", 0, walkKindName(plan.kind)}});
    }
}

void
NestedEcptWalker::traceProbes(int step, AddrSpan addrs, Cycles t)
{
    const auto core_id = static_cast<std::uint32_t>(core);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        tracer()->instant("probe", TraceCat::Probe, core_id, t,
                          {{"step", step},
                           {"way", static_cast<std::int64_t>(i)},
                           {"addr",
                            static_cast<std::int64_t>(addrs[i])}});
    }
}

EcptProbePlan
NestedEcptWalker::planStep1Host(Addr gpa, Cycles t)
{
    EcptPageTable &host = *sys.hostEcpt();
    PlanOptions options;
    options.use_pte_info = feat.step1_pte_hcwt;
    options.now = t;
    EcptProbePlan plan = planEcptWalk(host, hcwc_step1, gpa, options);

    if (feat.pt_4kb) {
        // Page tables are 4KB allocations (Section 4.3): the PUD- and
        // PMD-hECPTs cannot hold this translation.
        plan.way_mask[static_cast<int>(PageSize::Page2M)] = 0;
        plan.way_mask[static_cast<int>(PageSize::Page1G)] = 0;
        if (plan.way_mask[static_cast<int>(PageSize::Page4K)] == 0)
            plan.way_mask[static_cast<int>(PageSize::Page4K)] =
                host.allWays();
        plan.kind = classifyPlan(plan, host.config().ways);
    }
    return plan;
}

void
NestedEcptWalker::refillGuestCwc(Addr gva, const EcptProbePlan &gplan,
                                 Cycles t, std::vector<Addr> &background,
                                 bool traced)
{
    EcptPageTable &guest = *sys.guestEcpt();
    EcptPageTable &host = *sys.hostEcpt();

    for (int s = 0; s < num_page_sizes; ++s) {
        if (!gplan.cwc_missed[s])
            continue;
        const auto level = all_page_sizes[s];
        const CuckooWalkTable *cwt = guest.cwtOf(level);
        if (!cwt || !gcwc.caches(level))
            continue;

        // The gCWT entry lives at a guest-physical address: find the
        // host address of each probe (Section 4.1 / Figure 7).
        gcwt_scratch.clear();
        cwt->entryProbeAddrs(gva, gcwt_scratch);
        for (Addr gcwt_gpa : gcwt_scratch) {
            Addr hpa;
            Addr *cached = feat.stc ? stc.lookup(gcwt_gpa) : nullptr;
            if (feat.stc && traced)
                tracer_->instant(cached ? "stc.hit" : "stc.miss",
                                 TraceCat::Cwc,
                                 static_cast<std::uint32_t>(core), t,
                                 {{"gpa",
                                   static_cast<std::int64_t>(gcwt_gpa)}});
            if (cached) {
                hpa = *cached + pageOffset(gcwt_gpa, PageSize::Page4K);
            } else {
                // Full background translation: probe the hECPTs for
                // the gCWT page (it is a 4KB page-table allocation).
                host.probeAddrs(gcwt_gpa, PageSize::Page4K,
                                host.allWays(), background);
                const Translation h = sys.hostTranslatePt(gcwt_gpa);
                hpa = h.apply(gcwt_gpa);
                if (feat.stc)
                    stc.fill(gcwt_gpa, hpa & ~mask(12));
            }
            background.push_back(hpa);
        }

        gcwc.fill(level, cwt->entryKey(gva));
    }
}

/**
 * The resumable nested-ECPT walk. Each of Figure 6's three steps is a
 * state: the machine plans the step, issues its probe group as one
 * asynchronous memory transaction, and parks; the transaction's
 * completion callback advances to the next step. Per-walk scratch
 * (candidate slots, probe buffers, deferred refill traffic) lives here
 * so multiple walks from one walker can be in flight at once.
 */
class NestedEcptWalker::Machine : public WalkMachine
{
  public:
    Machine(NestedEcptWalker &walker, Addr gva, Cycles now)
        : WalkMachine(gva, now), w(walker)
    {}

    /** Reuse a pooled machine for a fresh walk: probe-buffer capacity
     *  survives, so a warm pool never touches the heap. */
    void
    rebind(Addr gva, Cycles now)
    {
        reinit(gva, now);
        tracing = false;
        t = 0;
        fg_requests = 0;
        gplan = EcptProbePlan{};
        h3plan = EcptProbePlan{};
        gpa_data = 0;
        use_pte3 = false;
        ledger.reset();
        scratch.clear();
    }

    void
    release() override
    {
        w.machine_free.push_back(this);
    }

    /** Run Step 1's plan phase and issue its probe transaction. */
    void
    start()
    {
        tracing = w.sampleWalk();
        // The residency check of this access ran just before the walk
        // (or, for a walk nobody checked, of some other access, which
        // the system tells apart by address).
        resident = w.sys.lastResidency();
        EcptPageTable &guest = *w.sys.guestEcpt();
        EcptPageTable &host = *w.sys.hostEcpt();
        const Addr gva = va();

        // ---- Step 1: locate the gECPT entry (Figure 6, left) ----
        t = startCycle() + w.gcwc.latency() + hash_latency;
        ledger.charge(AttrCause::Probe, w.gcwc.latency());
        ledger.charge(AttrCause::Compute, hash_latency);

        PlanOptions goptions;
        goptions.use_pte_info = false; // no PTE gCWT ever (Section 4.2)
        goptions.now = t;
        gplan = planEcptWalk(guest, w.gcwc, gva, goptions);
        w.stats_.guest_kind[static_cast<int>(gplan.kind)].inc();
        if (tracing)
            w.tracePlan("gcwc", w.gcwc, gplan, t);

        appendPlannedProbes(guest, gva, gplan, scratch.guest_slots);
        // Step 2 translates these slots through the host memo once the
        // Step-1 probes return: start the entries' loads now.
        for (Addr slot_gpa : scratch.guest_slots)
            w.sys.prefetchHostPt(slot_gpa);

        // For each candidate gECPT slot (a gPA), translate through the
        // hECPTs — the parallel Step-1 probe group.
        t += w.hcwc_step1.latency();
        ledger.charge(AttrCause::Probe, w.hcwc_step1.latency());
        for (Addr slot_gpa : scratch.guest_slots) {
            const EcptProbePlan hplan = w.planStep1Host(slot_gpa, t);
            w.stats_.host_kind[static_cast<int>(hplan.kind)].inc();
            if (tracing)
                w.tracePlan("hcwc_step1", w.hcwc_step1, hplan, t);
            appendPlannedProbes(host, slot_gpa, hplan, scratch.probes);

            // Background refill of missed Step-1 hCWC levels (deferred
            // to walk completion: refills never block the walk).
            PlanOptions hopts;
            hopts.use_pte_info = w.feat.step1_pte_hcwt;
            hopts.now = t;
            collectCwcRefills(host, w.hcwc_step1, slot_gpa, hplan,
                              hopts, scratch.background);
        }
        w.mem.issueBatch(scratch.probes, t, w.core,
                         TxnCallback::bind<&Machine::afterStep1>(this),
                         tracing);
    }

  private:
    void
    afterStep1(const BatchResult &br1, Cycles done)
    {
        const Cycles t1 = t;
        t = done;
        chargeProbePhase(w.stats_, 0, br1, &ledger);
        fg_requests += br1.requests;
        if (tracing) {
            w.traceProbes(1, scratch.probes, t1);
            w.tracer_->span(
                "walk.step1", TraceCat::Walk,
                static_cast<std::uint32_t>(w.core), t1, br1.latency,
                {{"probes", br1.requests},
                 {"gecpt_slots",
                  static_cast<std::int64_t>(
                      scratch.guest_slots.size())}});
        }

        // Background: refill missed gCWC levels (the STC's reason to
        // be).
        w.refillGuestCwc(va(), gplan, t, scratch.background, tracing);

        // ---- Step 2: fetch the gECPT candidates at host addresses ----
        scratch.probes.clear();
        for (Addr slot_gpa : scratch.guest_slots) {
            const Translation h = w.sys.hostTranslatePt(slot_gpa);
            scratch.probes.push_back(h.apply(slot_gpa));
        }
        w.mem.issueBatch(scratch.probes, t, w.core,
                         TxnCallback::bind<&Machine::afterStep2>(this),
                         tracing);
    }

    void
    afterStep2(const BatchResult &br2, Cycles done)
    {
        const Cycles t2 = t;
        t = done;
        chargeProbePhase(w.stats_, 1, br2, &ledger);
        fg_requests += br2.requests;
        if (tracing) {
            w.traceProbes(2, scratch.probes, t2);
            w.tracer_->span("walk.step2", TraceCat::Walk,
                            static_cast<std::uint32_t>(w.core), t2,
                            br2.latency, {{"probes", br2.requests}});
        }

        // ---- Step 3: translate the data page's gPA ----
        EcptPageTable &host = *w.sys.hostEcpt();
        const Translation g = w.sys.guestTranslate(va(), resident);
        if (!g.valid) {
            // Translation churn unmapped the page beneath this
            // in-flight walk. Real hardware would read the stale PTE;
            // the functional tables have already mutated, so finish
            // with an invalid translation and let the retire-time
            // coherence check replay against the new tables (the
            // shootdown ring answers invalidatedSince() true for this
            // VA). Cycles charged so far still equal the walk's
            // latency, so attribution conservation holds.
            abortUnmapped();
            return;
        }
        gpa_data = g.apply(va());

        t += w.hcwc_step3.latency() + hash_latency;
        ledger.charge(AttrCause::Probe, w.hcwc_step3.latency());
        ledger.charge(AttrCause::Compute, hash_latency);
        use_pte3 = w.feat.step3_adaptive_pte
                   && w.adaptive.pteCachingEnabled() && host.hasPteCwt();
        PlanOptions h3opts;
        h3opts.use_pte_info = use_pte3;
        h3opts.adaptive =
            w.feat.step3_adaptive_pte ? &w.adaptive : nullptr;
        h3opts.now = t;
        h3plan = planEcptWalk(host, w.hcwc_step3, gpa_data, h3opts);
        w.stats_.host_kind[static_cast<int>(h3plan.kind)].inc();
        if (tracing)
            w.tracePlan("hcwc_step3", w.hcwc_step3, h3plan, t);

        scratch.probes.clear();
        appendPlannedProbes(host, gpa_data, h3plan, scratch.probes);
        w.mem.issueBatch(scratch.probes, t, w.core,
                         TxnCallback::bind<&Machine::afterStep3>(this),
                         tracing);
    }

    void
    afterStep3(const BatchResult &br3, Cycles done)
    {
        const Cycles t3 = t;
        t = done;
        chargeProbePhase(w.stats_, 2, br3, &ledger);
        fg_requests += br3.requests;
        if (tracing) {
            w.traceProbes(3, scratch.probes, t3);
            w.tracer_->span("walk.step3", TraceCat::Walk,
                            static_cast<std::uint32_t>(w.core), t3,
                            br3.latency,
                            {{"probes", br3.requests},
                             {"pte_hcwt_on", use_pte3 ? 1 : 0}});
        }

        PlanOptions h3opts;
        h3opts.use_pte_info = use_pte3;
        collectCwcRefills(*w.sys.hostEcpt(), w.hcwc_step3, gpa_data,
                          h3plan, h3opts, scratch.background);

        // All background traffic (CWT fetches, gCWT translations) is
        // issued once the walk completes: it consumes bandwidth and
        // cache space but never extends this walk (Sections 3.2/4.1).
        // The transaction may outlive the machine (which can be
        // recycled as soon as the owner drops it), so its completion
        // callee is the walker, never this.
        if (!scratch.background.empty()) {
            w.mem.issueBatch(
                scratch.background, t, w.core,
                TxnCallback::bind<&NestedEcptWalker::noteBackground>(
                    &w),
                tracing);
        }

        WalkResult result;
        result.translation = w.sys.fullTranslate(va(), resident);
        // Invalid here means churn unmapped the page mid-walk (see
        // abortUnmapped); the retire-time coherence check replays.
        w.finishWalk(result, startCycle(), t, fg_requests, tracing,
                     &ledger);
        finish(std::move(result), t);
    }

    /** Finish early with an invalid translation after churn pulled
     *  the mapping out from under the walk. */
    void
    abortUnmapped()
    {
        WalkResult result;
        w.finishWalk(result, startCycle(), t, fg_requests, tracing,
                     &ledger);
        finish(std::move(result), t);
    }

    NestedEcptWalker &w;
    /** Is this walk sampled for the trace? Decided once, at start(),
     *  since other walks from this walker are in flight with it. */
    bool tracing = false;
    Cycles t = 0;
    int fg_requests = 0;
    /** This walk's cycle bins — per machine, since several walks from
     *  one walker can be in flight at once. */
    CycleLedger ledger;
    EcptProbePlan gplan;
    EcptProbePlan h3plan;
    Addr gpa_data = 0;
    bool use_pte3 = false;
    /** The residency check's translations, reused by Step 3 and the
     *  result while no unmap or remap has run since. */
    NestedSystem::Residency resident;
    /** Per-walk probe buffers (guest_slots = Step-1 candidate gECPT
     *  gPAs, background = deferred refill traffic). */
    ProbeScratch scratch;
};

NestedEcptWalker::~NestedEcptWalker() = default;

void
NestedEcptWalker::MachineDeleter::operator()(Machine *machine) const
{
    delete machine;
}

void
NestedEcptWalker::noteBackground(const BatchResult &batch, Cycles)
{
    stats_.mmu_requests.inc(static_cast<std::uint64_t>(batch.requests));
}

WalkMachinePtr
NestedEcptWalker::startWalk(Addr gva, Cycles now)
{
    Machine *m = nullptr;
    if (!machine_free.empty()) {
        m = machine_free.back();
        machine_free.pop_back();
        m->rebind(gva, now);
    } else {
        machine_arena.emplace_back(new Machine(*this, gva, now));
        m = machine_arena.back().get();
    }
    m->start();
    return WalkMachinePtr(m);
}

WalkResult
NestedEcptWalker::translate(Addr gva, Cycles now)
{
    // Synchronous wrapper: issue the walk and drain the hierarchy so
    // every state of the machine (and its background traffic) runs
    // before we return — the legacy call-and-return timing.
    auto m = startWalk(gva, now);
    mem.drainAll();
    NECPT_ASSERT(m->done());
    return m->result();
}

} // namespace necpt
