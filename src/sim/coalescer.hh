/**
 * @file
 * Walk-MSHR same-page coalescing (SimParams::walk_coalescing).
 *
 * Real MMUs do not launch two page walks for the same page: concurrent
 * translation misses merge in an MSHR-style structure at the walker,
 * and the one in-flight walk fans its result out to every waiter. The
 * per-core WalkCoalescer models that structure for overlapped walks
 * (max_outstanding_walks > 1): when a walk for 4KB guest page P is in
 * flight on this core, later L2-TLB misses for P park on its entry
 * instead of spawning a duplicate WalkMachine; at the primary's retire
 * the translation fans out — a data access per waiter at the
 * completion cycle (the primary's TLB install covers the page), and
 * the waiter's whole latency binned as AttrCause::Coalesce (see
 * Walker::recordCoalescedWalk), keeping both cycle-ledger conservation
 * and the walks ≈ L2-TLB-misses invariant.
 *
 * Determinism: the coalescer runs only inside step/retire events,
 * which the scheduler orders by (cycle, priority, sequence), and
 * waiters are fanned out in append order — so the bytes cannot depend
 * on --jobs. Entries and waiter vectors are pooled: steady state
 * touches the heap only until the working set's high-water mark is
 * reached.
 */

#ifndef NECPT_SIM_COALESCER_HH
#define NECPT_SIM_COALESCER_HH

#include <cstddef>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace necpt
{

class WalkMachine;

/** Per-core walk-MSHR: in-flight walks keyed on their 4KB gVA page. */
class WalkCoalescer
{
  public:
    /** One parked translation request. */
    struct Waiter
    {
        Addr va = 0;
        double issue_cycle = 0.0;
    };

    /** One in-flight primary walk and the requests merged onto it. */
    struct Entry
    {
        Addr page = 0;
        WalkMachine *primary = nullptr;
        std::vector<Waiter> waiters;
    };

    /** The 4KB-page coalescing key (walks are issued per gVA page). */
    static Addr pageOf(Addr va) { return va & ~static_cast<Addr>(0xFFF); }

    /** The open entry for @p page, or null when no walk is in flight.
     *  Linear scan: live entries are bounded by the per-core MLP cap. */
    Entry *
    find(Addr page)
    {
        for (Entry &e : entries_)
            if (e.page == page)
                return &e;
        return nullptr;
    }

    /** Open an entry for @p primary's walk of @p page. */
    void
    open(Addr page, WalkMachine *primary)
    {
        NECPT_ASSERT(find(page) == nullptr);
        Entry e;
        if (!pool_.empty()) {
            e = std::move(pool_.back());
            pool_.pop_back();
        }
        e.page = page;
        e.primary = primary;
        entries_.push_back(std::move(e));
    }

    /** The entry @p primary opened (every primary walk has one). */
    Entry *
    byPrimary(const WalkMachine *primary)
    {
        for (Entry &e : entries_)
            if (e.primary == primary)
                return &e;
        return nullptr;
    }

    /** Retire @p e: recycle it (the caller has fanned the waiters
     *  out). Invalidates Entry pointers. */
    void
    close(Entry *e)
    {
        const std::size_t idx =
            static_cast<std::size_t>(e - entries_.data());
        NECPT_ASSERT(idx < entries_.size());
        entries_[idx].waiters.clear();
        entries_[idx].primary = nullptr;
        pool_.push_back(std::move(entries_[idx]));
        if (idx != entries_.size() - 1)
            entries_[idx] = std::move(entries_.back());
        entries_.pop_back();
    }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<Entry> entries_; //!< open entries (one per in-flight walk)
    std::vector<Entry> pool_;    //!< recycled entries, capacity retained
};

} // namespace necpt

#endif // NECPT_SIM_COALESCER_HH
