#include "walk/baselines.hh"

#include "common/log.hh"

namespace necpt
{

WalkResult
AgilePagingWalker::translate(Addr gva, Cycles now)
{
    const bool traced = sampleWalk();
    WalkResult result;
    RadixSteps gsteps;
    RadixPageTable *gtable = sys.guestRadix();
    NECPT_ASSERT(gtable != nullptr);
    const Translation guest = gtable->walk(gva, gsteps);
    NECPT_ASSERT(guest.valid);

    Cycles t = now + pwc.latency();
    charge(AttrCause::Probe, pwc.latency());
    int accesses = 0;

    const int skip_through = pwcSkipLevel(pwc, gsteps, gva);

    // Ideal: each guest entry is fetched directly at its host address
    // with no host-dimension walk and no hypervisor cost.
    for (const RadixStep &step : gsteps) {
        if (step.level >= skip_through)
            continue;
        const Addr entry_gpa = step.entry_addr;
        const Translation host = sys.hostTranslate(entry_gpa);
        t += seqAccess(host.apply(entry_gpa), t);
        ++accesses;
        if (step.level >= 2 && !step.leaf)
            pwc.fill(step.level, gva);
    }

    result.translation = sys.fullTranslate(gva);
    finishWalk(result, now, t, accesses, traced);
    return result;
}

WalkResult
PomTlbWalker::translate(Addr gva, Cycles now)
{
    // One sample per TLB miss: the fallback walker has no tracer of
    // its own, so a traced walk records the fallback as one span.
    const bool traced = sampleWalk();
    // One in-DRAM probe (cacheable in L2/L3 like data). The probe IS
    // the POM-TLB lookup, so its whole latency is the tlb cause.
    Cycles t = now;
    const PomTlb::Result probe = pom.lookup(gva);
    t += seqAccessAs(AttrCause::Tlb, probe.entry_addr, t);
    if (traced)
        tracer_->span("pom.lookup", TraceCat::Walk,
                      static_cast<std::uint32_t>(core), now, t - now,
                      {{"hit", probe.hit}});

    if (probe.hit) {
        WalkResult result;
        result.translation = probe.translation;
        finishWalk(result, now, t, 1, traced);
        return result;
    }

    // Fall back to a full nested radix walk, then install.
    WalkResult walked = fallback.translate(gva, t);
    pom.install(gva, walked.translation);
    if (traced)
        tracer_->span("pom.fallback", TraceCat::Walk,
                      static_cast<std::uint32_t>(core), t,
                      walked.latency,
                      {{"accesses", walked.mem_accesses}});

    WalkResult result;
    result.translation = walked.translation;
    // The fallback walk's cycles are part of this walk's latency: fold
    // its ledger so our bins conserve the combined total.
    ledger_.fold(walked.ledger);
    finishWalk(result, now, t + walked.latency,
               1 + walked.mem_accesses, traced);
    // The fallback walker recorded its own stats; fold its traffic into
    // ours and neutralize the double count of busy cycles.
    stats_.mmu_requests.inc(
        static_cast<std::uint64_t>(walked.mem_accesses));
    return result;
}

WalkResult
FlatNestedWalker::translate(Addr gva, Cycles now)
{
    const bool traced = sampleWalk();
    WalkResult result;
    RadixSteps gsteps;
    RadixPageTable *gtable = sys.guestRadix();
    FlatPageTable *flat = sys.hostFlat();
    NECPT_ASSERT(gtable && flat);
    const Translation guest = gtable->walk(gva, gsteps);
    NECPT_ASSERT(guest.valid);

    Cycles t = now + gpwc.latency();
    charge(AttrCause::Probe, gpwc.latency());
    int accesses = 0;

    const int skip_through = pwcSkipLevel(gpwc, gsteps, gva);

    for (const RadixStep &step : gsteps) {
        if (step.level >= skip_through)
            continue;
        const Addr entry_gpa = step.entry_addr;
        Translation host;
        if (Addr *hpa_frame = ntlb.lookup(entry_gpa)) {
            host = {*hpa_frame, PageSize::Page4K, true};
            t += ntlb.latency();
            charge(AttrCause::Tlb, ntlb.latency());
        } else {
            // One flat-table reference translates any gPA.
            host = sys.hostTranslate(entry_gpa);
            t += seqAccess(flat->entryAddr(entry_gpa), t);
            ++accesses;
            ntlb.fill(entry_gpa, host.apply(entry_gpa) & ~mask(12));
        }
        t += seqAccess(host.apply(entry_gpa), t);
        ++accesses;
        if (step.level >= 2 && !step.leaf)
            gpwc.fill(step.level, gva);
    }

    // Final flat reference for the data page.
    const Addr gpa_data = guest.apply(gva);
    sys.hostTranslate(gpa_data);
    t += seqAccess(flat->entryAddr(gpa_data), t);
    ++accesses;

    result.translation = sys.fullTranslate(gva);
    finishWalk(result, now, t, accesses, traced);
    return result;
}

} // namespace necpt
