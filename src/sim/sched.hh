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
 * Handlers are stored inline: an event closure must be trivially
 * copyable and fit handler_bytes (both checked at compile time), which
 * every simulator event satisfies by capturing a pointer to long-lived
 * loop state plus a few scalars. Scheduling an event therefore never
 * heap-allocates — the hot loop runs millions of them.
 *
 * Memory-completion pumps skip the closures entirely: they live on a
 * calendar of bare cycles at priority -1 (see armPump), merged with
 * the closure heap at commit time.
 */

#ifndef NECPT_SIM_SCHED_HH
#define NECPT_SIM_SCHED_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

#include "common/function_ref.hh"
#include "common/log.hh"

namespace necpt
{

/**
 * Observer for the scheduler's event-dependency graph. When attached,
 * every scheduled event is reported together with the sequence number
 * of the event whose handler scheduled it (its parent) — the edges of
 * the run's happens-because DAG, which the critical-path analyzer
 * walks backwards to explain end-to-end latency. @c kind is an opaque
 * caller-defined tag (the simulator passes SimEventKind).
 */
class EventEdgeSink
{
  public:
    virtual ~EventEdgeSink() = default;
    virtual void onEvent(std::uint64_t seq, std::uint64_t parent,
                         double cycle, std::int64_t priority,
                         std::uint8_t kind) = 0;
};

/**
 * A (cycle, priority, sequence)-ordered run queue of closures, plus
 * the memory-pump calendar at priority -1.
 */
class EventScheduler
{
  public:
    /** The priority reserved for the pump calendar (armPump). */
    static constexpr std::int64_t pump_prio = -1;

    /** Callback for memory-completion pumps (see armPump). */
    using PumpSink = FunctionRef<void(double)>;

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

    /**
     * Enqueue @p fn at @p cycle with tie-break priority @p prio.
     * @p kind is an opaque tag forwarded to the edge sink (unused —
     * one dead branch — when no sink is attached).
     * @return the event's sequence number.
     */
    std::uint64_t
    at(double cycle, std::int64_t prio, Handler fn,
       std::uint8_t kind = 0)
    {
        // A closure at the calendar's priority would be order-ambiguous
        // against a pump at the same cycle.
        NECPT_ASSERT(prio != pump_prio);
        const std::uint64_t seq = next_seq++;
        heap.push_back(Event{cycle, prio, seq, fn});
        std::push_heap(heap.begin(), heap.end(), After{});
        if (edges)
            edges->onEvent(seq, running_seq, cycle, prio, kind);
        return seq;
    }

    /**
     * Attach (or detach, with nullptr) the dependency observer. Attach
     * before the first at() call so sinks can index nodes by seq.
     */
    void setEdgeSink(EventEdgeSink *sink) { edges = sink; }

    /**
     * Register the handler every pump calendar entry fires into, and
     * the edge-sink kind tag its fires report.
     */
    void
    setPumpSink(PumpSink sink, std::uint8_t kind = 0)
    {
        pump_sink = sink;
        pump_kind = kind;
    }

    /**
     * Schedule a memory-completion pump at @p cycle (priority -1).
     *
     * Pumps are the one event class hot enough to deserve a bypass of
     * the Handler machinery: every overlapped-walk memory transaction
     * arms one, and each is the *same* call (drainUntil at its cycle).
     * So instead of a closure on the heap, a pump is a bare double on
     * a min-heap of cycles, fanned into the registered sink at commit
     * time. Entries sharing a cycle collapse into one sink call — the
     * duplicates were no-op drains anyway — and a fire draws its
     * sequence number at commit, which no other event can observe:
     * priority -1 is calendar-exclusive, so a sequence comparison
     * against a pump never happens, and renumbering the remaining
     * events preserves their relative order.
     */
    void
    armPump(double cycle)
    {
        NECPT_ASSERT(pump_sink);
        pump_heap.push_back(cycle);
        std::push_heap(pump_heap.begin(), pump_heap.end(),
                       std::greater<double>{});
    }

    /** Sequence of the event currently executing (no_event outside a
     *  handler) — the parent assigned to events scheduled now. */
    static constexpr std::uint64_t no_event = ~0ULL;
    std::uint64_t runningSeq() const { return running_seq; }

    bool empty() const { return heap.empty() && pump_heap.empty(); }

    /** Cycle of the next event to run; only valid when !empty(). */
    double
    nextCycle() const
    {
        NECPT_ASSERT(!empty());
        return pumpNext() ? pump_heap.front() : heap.front().cycle;
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
            firePump();
            return;
        }
        std::pop_heap(heap.begin(), heap.end(), After{});
        Event ev = heap.back();
        heap.pop_back();
        running_seq = ev.seq;
        ev.fn();
        running_seq = no_event;
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

    /** Does the calendar's head commit before the closure heap's? */
    bool
    pumpNext() const
    {
        if (pump_heap.empty())
            return false;
        if (heap.empty())
            return true;
        const Event &e = heap.front();
        // Same cycle: -1 against a priority that is never -1.
        return pump_heap.front() < e.cycle
            || (pump_heap.front() == e.cycle && pump_prio < e.prio);
    }

    /** Pop every calendar entry at the head cycle and fire the sink
     *  once, under a sequence number drawn now. */
    void
    firePump()
    {
        const double cyc = pump_heap.front();
        do {
            std::pop_heap(pump_heap.begin(), pump_heap.end(),
                          std::greater<double>{});
            pump_heap.pop_back();
        } while (!pump_heap.empty() && pump_heap.front() == cyc);
        const std::uint64_t seq = next_seq++;
        if (edges)
            edges->onEvent(seq, no_event, cyc, pump_prio, pump_kind);
        running_seq = seq;
        pump_sink(cyc);
        running_seq = no_event;
    }

    std::vector<Event> heap;
    /** Min-heap of pump cycles (see armPump). */
    std::vector<double> pump_heap;
    PumpSink pump_sink;
    std::uint8_t pump_kind = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t running_seq = no_event;
    EventEdgeSink *edges = nullptr;
};

} // namespace necpt

#endif // NECPT_SIM_SCHED_HH
