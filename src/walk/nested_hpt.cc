#include "walk/nested_hpt.hh"

#include "common/log.hh"

namespace necpt
{

Translation
NestedHptWalker::hostChain(Addr gpa, Cycles &t, int &accesses)
{
    HashedPageTable *host = sys.hostHpt();
    NECPT_ASSERT(host != nullptr);
    // Ensure the backing exists, then walk the collision chain.
    const Translation h = sys.hostTranslate(gpa);
    probe_buf.clear();
    const Translation chain = host->lookup(gpa, &probe_buf);
    NECPT_ASSERT(chain.valid);
    // Open addressing probes are dependent: each slot must be read to
    // learn whether the chain continues.
    for (Addr slot : probe_buf) {
        t += seqAccess(slot, t);
        ++accesses;
    }
    return h;
}

WalkResult
NestedHptWalker::translate(Addr gva, Cycles now)
{
    const bool traced = sampleWalk();
    WalkResult result;
    HashedPageTable *guest = sys.guestHpt();
    NECPT_ASSERT(guest != nullptr);

    Cycles t = now + hash_latency;
    charge(AttrCause::Compute, hash_latency);
    int accesses = 0;

    // Step 1+2 (Figure 3): walk the guest chain; each guest slot is a
    // gPA that first needs a host-HPT translation.
    probe_buf.clear();
    const Translation g = guest->lookup(gva, &probe_buf);
    NECPT_ASSERT(g.valid);
    const std::vector<Addr> guest_chain = probe_buf; // hostChain reuses
    for (Addr slot_gpa : guest_chain) {
        Cycles t_host = t;
        const Translation h = hostChain(slot_gpa, t_host, accesses);
        t = t_host;
        // Fetch the guest slot itself at its host address.
        t += seqAccess(h.apply(slot_gpa), t);
        ++accesses;
    }

    // Step 3: translate the data page's gPA through the host HPT.
    const Addr gpa_data = g.apply(gva);
    t += hash_latency;
    charge(AttrCause::Compute, hash_latency);
    hostChain(gpa_data, t, accesses);

    result.translation = sys.fullTranslate(gva);
    NECPT_ASSERT(result.translation.valid);
    finishWalk(result, now, t, accesses, traced);
    return result;
}

} // namespace necpt
