#include "walk/hybrid.hh"

#include "common/log.hh"

namespace necpt
{

Translation
HybridWalker::hostProbe(Addr gpa, int row, Cycles &t, int &accesses,
                        bool traced)
{
    EcptPageTable &host = *sys.hostEcpt();
    const Translation h = sys.hostTranslate(gpa);

    // Row policy for PTE hCWT usage (Section 6).
    bool use_pte = false;
    AdaptiveCwcController *controller = nullptr;
    if (row <= 2) {
        use_pte = host.hasPteCwt();
    } else if (row == 3) {
        use_pte = host.hasPteCwt() && adaptive.pteCachingEnabled();
        controller = &adaptive;
    }

    t += hcwc.latency() + hash_latency;
    charge(AttrCause::Probe, hcwc.latency());
    charge(AttrCause::Compute, hash_latency);
    PlanOptions options;
    options.use_pte_info = use_pte;
    options.adaptive = controller;
    options.now = t;
    const EcptProbePlan plan = planEcptWalk(host, hcwc, gpa, options);
    stats_.host_kind[static_cast<int>(plan.kind)].inc();

    probe_buf.clear();
    appendPlannedProbes(host, gpa, plan, probe_buf);
    // Hybrid walks have no fixed three-step structure: step -1 skips
    // the per-step tallies.
    const BatchResult br = executeProbePhase(mem, core, stats_, -1,
                                             probe_buf, t, &ledger_,
                                             traced);
    t += br.latency;
    accesses += br.requests;

    refill_buf.clear();
    collectCwcRefills(host, hcwc, gpa, plan, options, refill_buf);
    if (!refill_buf.empty())
        backgroundAccess(refill_buf, t, traced);

    return h;
}

WalkResult
HybridWalker::translate(Addr gva, Cycles now)
{
    const bool traced = sampleWalk();
    WalkResult result;
    RadixSteps gsteps;
    RadixPageTable *gtable = sys.guestRadix();
    NECPT_ASSERT(gtable != nullptr);
    const Translation guest = gtable->walk(gva, gsteps);
    NECPT_ASSERT(guest.valid);

    Cycles t = now + gpwc.latency();
    charge(AttrCause::Probe, gpwc.latency());
    int accesses = 0;

    const int skip_through = pwcSkipLevel(gpwc, gsteps, gva);

    for (const RadixStep &step : gsteps) {
        if (step.level >= skip_through)
            continue;
        const int row = 5 - step.level; // gL4 -> 1 ... gL1 -> 4
        const Addr entry_gpa = step.entry_addr;
        Translation host;
        if (Addr *hpa_frame = ntlb.lookup(entry_gpa)) {
            host = {*hpa_frame, PageSize::Page4K, true};
            t += ntlb.latency();
            charge(AttrCause::Tlb, ntlb.latency());
        } else {
            host = hostProbe(entry_gpa, row, t, accesses, traced);
            ntlb.fill(entry_gpa, host.apply(entry_gpa) & ~mask(12));
        }
        t += seqAccess(host.apply(entry_gpa), t);
        ++accesses;
        if (step.level >= 2 && !step.leaf)
            gpwc.fill(step.level, gva);
    }

    // Row 5: the data page's gPA.
    const Addr gpa_data = guest.apply(gva);
    hostProbe(gpa_data, 5, t, accesses, traced);

    result.translation = sys.fullTranslate(gva);
    finishWalk(result, now, t, accesses, traced);
    return result;
}

} // namespace necpt
