#include "walk/nested_radix.hh"

#include "common/log.hh"

namespace necpt
{

Translation
NestedRadixWalker::hostWalk(Addr gpa, Cycles &t, int &accesses)
{
    // Make sure the backing exists (functional fault-in), then walk.
    const Translation host = sys.hostTranslate(gpa);
    RadixSteps steps;
    RadixPageTable *table = sys.hostRadix();
    NECPT_ASSERT(table != nullptr);
    table->walk(gpa, steps);

    const int skip_through = pwcSkipLevel(npwc, steps, gpa, 1);

    for (const RadixStep &step : steps) {
        if (step.level >= skip_through)
            continue;
        t += seqAccess(step.entry_addr, t);
        ++accesses;
        if (!step.leaf)
            npwc.fill(step.level, gpa);
    }
    return host;
}

WalkResult
NestedRadixWalker::translate(Addr gva, Cycles now)
{
    const bool tracing = sampleWalk();
    WalkResult result;
    RadixSteps gsteps;
    RadixPageTable *gtable = sys.guestRadix();
    NECPT_ASSERT(gtable != nullptr);
    const Translation guest = gtable->walk(gva, gsteps);
    NECPT_ASSERT(guest.valid);

    Cycles t = now + gpwc.latency(); // gPWC/NTLB probed up front
    charge(AttrCause::Probe, gpwc.latency());
    int accesses = 0;

    // Deepest guest level whose entry the gPWC supplies.
    const int skip_through = pwcSkipLevel(gpwc, gsteps, gva);

    // Guest dimension: translate and fetch each remaining gL_i entry
    // (Figure 2 steps 1-20).
    for (const RadixStep &step : gsteps) {
        if (step.level >= skip_through)
            continue;
        const Addr entry_gpa = step.entry_addr;
        Translation host;
        Addr *hpa_frame = ntlb.lookup(entry_gpa);
        if (tracing)
            tracer_->instant(hpa_frame ? "ntlb.hit" : "ntlb.miss",
                             TraceCat::Cwc,
                             static_cast<std::uint32_t>(core), t,
                             {{"level", step.level},
                              {"gpa", static_cast<std::int64_t>(
                                          entry_gpa)}});
        if (hpa_frame) {
            host = {*hpa_frame, PageSize::Page4K, true};
            t += ntlb.latency();
            charge(AttrCause::Tlb, ntlb.latency());
        } else {
            const Cycles t0 = t;
            host = hostWalk(entry_gpa, t, accesses);
            if (tracing)
                tracer_->span("nested.host_walk", TraceCat::Walk,
                              static_cast<std::uint32_t>(core), t0,
                              t - t0, {{"level", step.level}});
            ntlb.fill(entry_gpa,
                      host.apply(entry_gpa) & ~mask(12));
        }
        const Addr entry_hpa = host.apply(entry_gpa);
        t += seqAccess(entry_hpa, t);
        ++accesses;
        if (step.level >= 2 && !step.leaf)
            gpwc.fill(step.level, gva);
    }

    // Final host dimension for the data page (Figure 2 steps 21-24).
    const Addr gpa_data = guest.apply(gva);
    const Cycles tf = t;
    hostWalk(gpa_data, t, accesses);
    if (tracing)
        tracer_->span("nested.host_walk", TraceCat::Walk,
                      static_cast<std::uint32_t>(core), tf, t - tf,
                      {{"level", 0}});

    result.translation = sys.fullTranslate(gva);
    finishWalk(result, now, t, accesses, tracing);
    return result;
}

} // namespace necpt
