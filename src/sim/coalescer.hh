/**
 * @file
 * The per-core table of in-flight walks: the walker's MSHRs.
 *
 * With overlapped walks (max_outstanding_walks > 1) every walk a core
 * issues opens an entry. The entry owns the walk's machine until the
 * walk retires and carries what the retire needs: the coherence epoch
 * the walk issued under, the critical-path spine of the step that
 * issued it, and the requests merged onto it. Entries sit in fixed
 * slots, one per walk the MLP cap allows, so a slot index names a walk
 * for its whole flight (its retire event carries the index) and the
 * table never reallocates.
 *
 * Same-page coalescing (SimParams::walk_coalescing): real MMUs do not
 * launch two page walks for the same page. Under it, a later L2-TLB
 * miss for 4KB guest page P parks on P's open entry instead of
 * spawning a duplicate WalkMachine; at the primary's retire the
 * translation fans out — a data access per waiter at the completion
 * cycle (the primary's TLB install covers the page), and the waiter's
 * whole latency binned as AttrCause::Coalesce (see
 * Walker::recordCoalescedWalk), keeping both cycle-ledger conservation
 * and the walks ≈ L2-TLB-misses invariant. Without it requests never
 * merge, and two walks of one page may be in flight at once.
 *
 * Determinism: the table is touched only inside step/retire events,
 * which the scheduler orders by (cycle, priority, sequence), and
 * waiters are fanned out in append order — so the bytes cannot depend
 * on --jobs. A slot's waiter vector keeps its capacity from walk to
 * walk: steady state touches the heap only until the working set's
 * high-water mark is reached.
 */

#ifndef NECPT_SIM_COALESCER_HH
#define NECPT_SIM_COALESCER_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/critical_path.hh"
#include "walk/machine.hh"

namespace necpt
{

/** Per-core walk-MSHR: one slot per walk the MLP cap lets fly. */
class WalkCoalescer
{
  public:
    /** One parked translation request. */
    struct Waiter
    {
        Addr va = 0;
        double issue_cycle = 0.0;
    };

    /** One in-flight walk and the requests merged onto it. */
    struct Entry
    {
        Addr page = 0;
        WalkMachinePtr machine;  //!< null while the slot is free
        std::uint64_t epoch = 0; //!< coherence epoch at issue
        Spine issue;             //!< spine of the step that issued it
        std::vector<Waiter> waiters;
    };

    /** The 4KB-page coalescing key (walks are issued per gVA page). */
    static Addr pageOf(Addr va) { return va & ~static_cast<Addr>(0xFFF); }

    /** Give the table @p slots slots, all free. */
    explicit WalkCoalescer(int slots = 0)
        : entries_(static_cast<std::size_t>(slots))
    {}

    /** The open entry for @p page, or null when no walk is in flight.
     *  Linear scan: slots are bounded by the per-core MLP cap. */
    Entry *
    find(Addr page)
    {
        for (Entry &e : entries_)
            if (e.machine && e.page == page)
                return &e;
        return nullptr;
    }

    /** Open a free slot for @p machine's walk; @return its index. */
    int
    open(WalkMachinePtr machine)
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.machine)
                continue;
            e.page = pageOf(machine->va());
            e.machine = std::move(machine);
            ++live_;
            return static_cast<int>(i);
        }
        panic("walk table: every slot is in flight");
    }

    /** The entry in slot @p slot, open or free. */
    Entry &at(int slot) { return entries_[static_cast<std::size_t>(slot)]; }

    /** Retire slot @p slot's walk: dropping the machine recycles it
     *  into its walker's pool (the caller has fanned the waiters
     *  out). */
    void
    close(int slot)
    {
        Entry &e = at(slot);
        NECPT_ASSERT(e.machine);
        e.machine.reset();
        e.waiters.clear();
        --live_;
    }

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

  private:
    std::vector<Entry> entries_;
    std::size_t live_ = 0;
};

} // namespace necpt

#endif // NECPT_SIM_COALESCER_HH
