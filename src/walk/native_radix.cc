#include "walk/native_radix.hh"

#include "common/log.hh"

namespace necpt
{

WalkResult
NativeRadixWalker::translate(Addr gva, Cycles now)
{
    const bool tracing = sampleWalk();
    WalkResult result;
    RadixSteps steps;
    RadixPageTable *table = sys.guestRadix();
    NECPT_ASSERT(table != nullptr);
    const Translation t9n = table->walk(gva, steps);
    NECPT_ASSERT(t9n.valid);

    const int skip_through = pwcSkipLevel(pwc, steps, gva);

    Cycles t = now + pwc.latency();
    charge(AttrCause::Probe, pwc.latency());
    int accesses = 0;
    for (const RadixStep &step : steps) {
        if (step.level >= skip_through)
            continue;
        const Cycles t0 = t;
        t += seqAccess(step.entry_addr, t);
        ++accesses;
        if (tracing)
            tracer_->span("radix.level", TraceCat::Walk,
                          static_cast<std::uint32_t>(core), t0, t - t0,
                          {{"level", step.level},
                           {"addr", static_cast<std::int64_t>(
                                        step.entry_addr)}});
        // Only non-leaf entries belong in the PWC; completed leaf
        // translations go to the TLB instead.
        if (step.level >= 2 && !step.leaf)
            pwc.fill(step.level, gva);
    }

    result.translation = t9n;
    finishWalk(result, now, t, accesses, tracing);
    return result;
}

} // namespace necpt
