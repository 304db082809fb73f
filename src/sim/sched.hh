/**
 * @file
 * Deterministic event scheduler for the timing core.
 *
 * Events are ordered by (cycle, priority, submission sequence): cycle
 * is the simulated time (a double, matching the cores' fractional
 * clocks), priority breaks same-cycle ties between event classes
 * (coherence rounds at -2, memory-completion pumps at -1, core steps
 * and retires at their core index — reproducing the legacy "advance
 * the lowest-indexed earliest core" rule — and the interval sampler
 * last), and the monotonically increasing sequence number makes the
 * remaining ties deterministic regardless of heap internals. No
 * wall-clock or randomness is involved, so a run's event stream is a
 * pure function of its inputs — the property the sweep engine's
 * byte-identical-at-any---jobs contract rests on.
 *
 * The scheduler only orders events: it does not know what an event
 * does or which event caused it. Whoever needs causality (the
 * critical-path recorder) keeps it in the state the events share.
 *
 * Handlers are stored inline: an event closure must be trivially
 * copyable and fit handler_bytes (both checked at compile time), which
 * every simulator event satisfies by capturing a pointer to long-lived
 * loop state plus a few scalars. Scheduling an event therefore never
 * heap-allocates — the hot loop runs millions of them.
 *
 * Memory completions are not queued here at all: the scheduler reads
 * the earliest pending one straight from a CompletionSource (the
 * memory hierarchy's own completion heap) and pumps it at priority -1
 * (see setCompletionSource).
 */

#ifndef NECPT_SIM_SCHED_HH
#define NECPT_SIM_SCHED_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "mem/txn.hh"

namespace necpt
{

/**
 * A (cycle, priority, sequence)-ordered run queue of closures, plus
 * the memory-completion pumps of a CompletionSource at priority -1.
 */
class EventScheduler
{
  public:
    /** The priority reserved for completion pumps. */
    static constexpr std::int64_t pump_prio = -1;

    /** Inline closure capacity: a pointer to the loop state plus a
     *  handful of scalars. Raise it if a new event legitimately needs
     *  more — the static_assert names the offender. */
    static constexpr std::size_t handler_bytes = 48;

    /** A trivially-copyable closure stored inline (no heap). */
    class Handler
    {
      public:
        template <typename F,
                  typename = std::enable_if_t<
                      !std::is_same_v<std::remove_cvref_t<F>, Handler>>>
        Handler(F fn)
        {
            static_assert(std::is_trivially_copyable_v<F>,
                          "event closures must be trivially copyable "
                          "(capture pointers/scalars, not owning state)");
            static_assert(sizeof(F) <= handler_bytes,
                          "event closure exceeds the scheduler's inline "
                          "storage; shrink it or raise handler_bytes");
            static_assert(alignof(F) <= alignof(std::max_align_t));
            ::new (static_cast<void *>(storage)) F(fn);
            invoke = [](const void *s) {
                (*static_cast<const F *>(
                    static_cast<const void *>(s)))();
            };
        }

        void operator()() const { invoke(storage); }

      private:
        alignas(std::max_align_t) unsigned char storage[handler_bytes];
        void (*invoke)(const void *) = nullptr;
    };

    /** Enqueue @p fn at @p cycle with tie-break priority @p prio. */
    void
    at(double cycle, std::int64_t prio, Handler fn)
    {
        // A closure at the pumps' priority would be order-ambiguous
        // against a pump at the same cycle.
        NECPT_ASSERT(prio != pump_prio);
        heap.push_back(Event{cycle, prio, next_seq++, fn});
        std::push_heap(heap.begin(), heap.end(), After{});
    }

    /**
     * Pump the pending completions of @p source (nullptr detaches).
     *
     * The source's earliest completion cycle is read in place, so a
     * completion is never recorded twice. When it is the next thing
     * due — after same-cycle events below priority -1, before those
     * above — runNext() fires one source->drainUntil(cycle), which
     * drains every completion due by then, so a cycle gets one pump
     * however many transactions complete in it. Priority -1 is
     * pump-exclusive, so a pump needs no sequence number.
     */
    void
    setCompletionSource(CompletionSource *source)
    {
        completions = source;
    }

    bool
    empty() const
    {
        return heap.empty() && !(completions && completions->hasPending());
    }

    /**
     * Pop and run the earliest event. The handler may enqueue further
     * events (including at the current cycle — they run after every
     * already-queued same-cycle event of equal priority).
     */
    void
    runNext()
    {
        NECPT_ASSERT(!empty());
        if (pumpNext()) {
            completions->drainUntil(completions->nextCompletionCycle());
            return;
        }
        std::pop_heap(heap.begin(), heap.end(), After{});
        const Event ev = heap.back();
        heap.pop_back();
        ev.fn();
    }

  private:
    struct Event
    {
        double cycle;
        std::int64_t prio;
        std::uint64_t seq;
        Handler fn;
    };

    /** Strict weak ordering: does @p a run after @p b? */
    struct After
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.cycle != b.cycle)
                return a.cycle > b.cycle;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    /** Does the earliest pending completion commit before the closure
     *  heap's head? */
    bool
    pumpNext() const
    {
        if (!completions || !completions->hasPending())
            return false;
        if (heap.empty())
            return true;
        const double due =
            static_cast<double>(completions->nextCompletionCycle());
        const Event &e = heap.front();
        // Same cycle: -1 against a priority that is never -1.
        return due < e.cycle || (due == e.cycle && pump_prio < e.prio);
    }

    std::vector<Event> heap;
    CompletionSource *completions = nullptr;
    std::uint64_t next_seq = 0;
};

} // namespace necpt

#endif // NECPT_SIM_SCHED_HH
