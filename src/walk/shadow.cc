#include "walk/shadow.hh"

#include "common/log.hh"

namespace necpt
{

ShadowPagingWalker::ShadowPagingWalker(NestedSystem &system,
                                       MemoryHierarchy &memory,
                                       int core_id, Cycles vmexit_cycles)
    : Walker(system, memory, core_id), pwc(2, 5, 32),
      vmexit_cost(vmexit_cycles)
{
    // The shadow tree is hypervisor state in host-physical memory.
    shadow = std::make_unique<RadixPageTable>(sys.hostPool());
}

std::uint64_t
ShadowPagingWalker::shadowBytes() const
{
    return shadow->structureBytes();
}

std::size_t
ShadowPagingWalker::invalidateTranslationCaches(Addr gva,
                                                std::uint64_t bytes,
                                                Addr, std::uint64_t)
{
    std::size_t count = pwc.invalidateRange(gva, bytes);
    const Addr last = gva + (bytes ? bytes - 1 : 0);
    Addr va = pageBase(gva, PageSize::Page4K);
    while (va <= last) {
        const Translation t9n = shadow->lookup(va);
        if (t9n.valid) {
            shadow->unmap(pageBase(va, t9n.size), t9n.size);
            ++count;
            va = pageBase(va, t9n.size) + pageBytes(t9n.size);
        } else {
            va += pageBytes(PageSize::Page4K);
        }
    }
    return count;
}

WalkResult
ShadowPagingWalker::translate(Addr gva, Cycles now)
{
    const bool traced = sampleWalk();
    WalkResult result;
    Cycles t = now + pwc.latency();
    charge(AttrCause::Probe, pwc.latency());
    int accesses = 0;

    RadixSteps steps;
    Translation t9n = shadow->walk(gva, steps);
    if (!t9n.valid) {
        // Shadow fault: the hypervisor walks the guest and host tables
        // in software and installs the composed translation. We charge
        // the VM-exit round trip; the software walk's memory accesses
        // are subsumed in it.
        ++vmexits;
        t += vmexit_cost;
        charge(AttrCause::Compute, vmexit_cost);
        const Translation full = sys.fullTranslate(gva);
        NECPT_ASSERT(full.valid);
        shadow->map(pageBase(gva, full.size), full.pa, full.size);
        steps.clear();
        t9n = shadow->walk(gva, steps);
        NECPT_ASSERT(t9n.valid);
    }

    const int skip_through = pwcSkipLevel(pwc, steps, gva);
    for (const RadixStep &step : steps) {
        if (step.level >= skip_through)
            continue;
        t += seqAccess(step.entry_addr, t);
        ++accesses;
        if (step.level >= 2 && !step.leaf)
            pwc.fill(step.level, gva);
    }

    result.translation = t9n;
    finishWalk(result, now, t, accesses, traced);
    return result;
}

} // namespace necpt
