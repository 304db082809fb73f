/**
 * @file
 * Shadow paging walker — the classic software alternative to nested
 * paging (Waldspurger, OSDI'02; the design Agile Paging hybridizes
 * with, Sections 9.6/10).
 *
 * The hypervisor maintains a *shadow* radix table mapping gVA directly
 * to hPA, so a TLB miss walks a single 4-level tree (4 references, PWC
 * accelerated) — but every guest page-table update forces a VM exit so
 * the hypervisor can resynchronize the shadow. We model the steady
 * state the paper measures: shadow entries are built lazily on first
 * touch, each charged a configurable VM-exit cost.
 */

#ifndef NECPT_WALK_SHADOW_HH
#define NECPT_WALK_SHADOW_HH

#include <memory>

#include "mmu/walk_caches.hh"
#include "walk/walker.hh"

namespace necpt
{

/**
 * Shadow-paging walker.
 */
class ShadowPagingWalker : public Walker
{
  public:
    /**
     * @param vmexit_cycles hypervisor intervention cost charged when a
     *        translation is first shadowed (a round trip through the
     *        hypervisor: ~1-2us on real hardware; Table-2-era machines
     *        cost roughly a thousand cycles)
     */
    ShadowPagingWalker(NestedSystem &system, MemoryHierarchy &memory,
                       int core_id, Cycles vmexit_cycles = 1200);

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "ShadowPaging"; }

    void
    resetStats() override
    {
        Walker::resetStats();
        pwc.resetStats();
    }

    /** VM exits taken to synchronize the shadow table. */
    std::uint64_t vmExits() const { return vmexits; }

    /** Bytes of shadow-table structure (hypervisor overhead). */
    std::uint64_t shadowBytes() const;

    /**
     * Shootdown receive side: a guest page-table mutation invalidates
     * both the PWC range and the stale shadow entries — the next touch
     * refaults through the hypervisor (a fresh VM exit) and installs
     * the recomposed translation.
     */
    std::size_t invalidateTranslationCaches(
        Addr gva, std::uint64_t bytes, Addr gpa,
        std::uint64_t gpa_bytes) override;

  private:
    PageWalkCache pwc;
    std::unique_ptr<RadixPageTable> shadow;
    Cycles vmexit_cost;
    std::uint64_t vmexits = 0;
};

} // namespace necpt

#endif // NECPT_WALK_SHADOW_HH
