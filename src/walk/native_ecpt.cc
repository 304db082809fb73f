#include "walk/native_ecpt.hh"

#include "common/log.hh"

namespace necpt
{

WalkResult
NativeEcptWalker::translate(Addr gva, Cycles now)
{
    const bool tracing = sampleWalk();
    WalkResult result;
    EcptPageTable *table = sys.guestEcpt();
    NECPT_ASSERT(table != nullptr);

    Cycles t = now + cwc.latency() + hash_latency;
    charge(AttrCause::Probe, cwc.latency());
    charge(AttrCause::Compute, hash_latency);

    PlanOptions options;
    options.use_pte_info = false;
    options.now = t;
    const EcptProbePlan plan = planEcptWalk(*table, cwc, gva, options);
    stats_.guest_kind[static_cast<int>(plan.kind)].inc();
    if (tracing) {
        for (int s = 0; s < num_page_sizes; ++s) {
            if (!cwc.caches(all_page_sizes[s]))
                continue;
            tracer_->instant(plan.cwc_missed[s] ? "cwc.miss"
                                                : "cwc.hit",
                             TraceCat::Cwc,
                             static_cast<std::uint32_t>(core), t,
                             {{"cache", 0, "gcwc"},
                              {"level", 0,
                               pageLevelName(all_page_sizes[s])},
                              {"kind", 0, walkKindName(plan.kind)}});
        }
    }

    // One parallel probe phase over the selected (size, way) slots —
    // addresses are final physical in a native system.
    probe_buf.clear();
    appendPlannedProbes(*table, gva, plan, probe_buf);
    const Cycles t1 = t;
    const BatchResult br =
        executeProbePhase(mem, core, stats_, 0, probe_buf, t, &ledger_,
                          tracing);
    t += br.latency;
    if (tracing) {
        const auto core_id = static_cast<std::uint32_t>(core);
        for (std::size_t i = 0; i < probe_buf.size(); ++i)
            tracer_->instant("probe", TraceCat::Probe, core_id, t1,
                             {{"step", 1},
                              {"way", static_cast<std::int64_t>(i)},
                              {"addr", static_cast<std::int64_t>(
                                           probe_buf[i])}});
        tracer_->span("walk.probe", TraceCat::Walk, core_id, t1,
                      br.latency, {{"probes", br.requests}});
    }

    // Background CWT refills for the CWC levels that missed.
    refill_buf.clear();
    collectCwcRefills(*table, cwc, gva, plan, options, refill_buf);
    if (!refill_buf.empty())
        backgroundAccess(refill_buf, t, tracing);

    result.translation = sys.fullTranslate(gva);
    NECPT_ASSERT(result.translation.valid);
    finishWalk(result, now, t, br.requests, tracing);
    return result;
}

} // namespace necpt
