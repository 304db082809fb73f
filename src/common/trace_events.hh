/**
 * @file
 * Walk-level event tracing (the observability layer's timeline half).
 *
 * A TraceBuffer is a preallocated ring of cycle-timestamped events:
 * walk/step spans, per-way probe records, CWC/STC hit-miss marks,
 * cuckoo kick chains and resize windows, fault-injection sites, and
 * sweep-engine job spans. Timestamps are simulated cycles — never
 * wall-clock — so a trace is a pure function of (config, seed) and two
 * runs at any worker count compare byte-identical. The one exception,
 * engine wall-clock spans (queue wait / run), is tagged
 * non-deterministic and filtered out by the canonical writer.
 *
 * Hot-path contract: a null tracer pointer or a default-constructed
 * (disabled) buffer costs one branch; an enabled buffer never
 * allocates after construction (events overwrite the oldest slot when
 * the ring is full, with a dropped-event count).
 *
 * Export is Chrome trace-event JSON ("traceEvents" array), viewable
 * in Perfetto / chrome://tracing. One simulated cycle is written as
 * one microsecond.
 */

#ifndef NECPT_COMMON_TRACE_EVENTS_HH
#define NECPT_COMMON_TRACE_EVENTS_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace necpt
{

/** Event category (the Chrome "cat" field; filterable in Perfetto). */
enum class TraceCat : std::uint8_t
{
    Walk,   //!< whole-walk and per-step spans
    Probe,  //!< individual (size, way) probe issues
    Cwc,    //!< CWC / STC / NTLB hit-miss marks
    Cuckoo, //!< kick chains and elastic resize windows
    Fault,  //!< injected-fault sites firing
    Mem,    //!< hierarchy accesses resolved (level + latency)
    Engine, //!< sweep-engine job lifecycle spans
    Shootdown, //!< TLB-shootdown rounds, acks, and in-flight replays
};

const char *traceCatName(TraceCat cat);

/**
 * One named argument. Keys and text values must be string literals
 * (or otherwise outlive the buffer): events store raw pointers so the
 * hot path never copies strings.
 */
struct TraceArg
{
    const char *key = "";
    std::int64_t value = 0;
    const char *text = nullptr; //!< when set, serialized instead of value
};

/** One record in the ring. POD; ~2 cache lines. */
struct TraceEvent
{
    const char *name = "";
    TraceCat cat = TraceCat::Walk;
    char ph = 'i';             //!< 'X' complete span, 'i' instant
    bool deterministic = true; //!< false only for wall-clock spans
    std::uint32_t pid = 0;     //!< lane: sweep job index (0 standalone)
    std::uint32_t tid = 0;     //!< core id, or the engine lane
    std::uint64_t ts = 0;      //!< cycles (wall spans: µs from start)
    std::uint64_t dur = 0;     //!< span length; 0 for instants
    std::uint8_t nargs = 0;
    std::array<TraceArg, 4> args{};
};

/** The engine's tid lane (no simulated core uses values this high). */
constexpr std::uint32_t trace_engine_tid = 1u << 16;

/** The page-table structures' lane (cuckoo kicks, resizes, faults). */
constexpr std::uint32_t trace_pt_tid = (1u << 16) + 1;

/** The coherence controller's lane (shootdown rounds and churn ops). */
constexpr std::uint32_t trace_coherence_tid = (1u << 16) + 2;

/**
 * Ring-buffered event sink with walk-level sampling.
 *
 * Not thread-safe: one buffer belongs to one simulation (sweep jobs
 * are share-nothing and own a private buffer each).
 */
class TraceBuffer
{
  public:
    static constexpr std::size_t default_capacity = 1 << 16;

    /** Disabled buffer: every emit is a no-op, sampleWalk() is false. */
    TraceBuffer() = default;

    /**
     * @param capacity ring slots (0 = disabled)
     * @param sample_every trace every Nth walk (1 = all, 0 = none)
     */
    explicit TraceBuffer(std::size_t capacity,
                         std::uint64_t sample_every = 1)
        : sample(sample_every)
    {
        ring.resize(capacity);
    }

    bool enabled() const { return !ring.empty(); }

    /// @name Walk sampling
    /// Each walk asks once, at its start, whether it is traced, and
    /// keeps the answer: its span, probe, CWC and mem events are
    /// emitted only if so, which is how `--trace-walks=N` keeps hot
    /// paths quiet. The buffer has no notion of a current walk, since
    /// overlapped walks are in flight together.
    /// @{
    bool
    sampleWalk()
    {
        if (!enabled() || sample == 0)
            return false;
        const bool sampled = walk_seq++ % sample == 0;
        walks_sampled += sampled;
        return sampled;
    }

    std::uint64_t walksSampled() const { return walks_sampled; }
    /// @}

    /// @name Ambient state
    /// @{
    /** Lane stamped on every event (sweep job submission index). */
    void setPid(std::uint32_t p) { pid_ = p; }
    std::uint32_t pid() const { return pid_; }

    /** Ambient clock for events emitted outside a timed walk phase
     *  (cuckoo inserts, fault sites); the simulator keeps it fresh. */
    void setNow(Cycles c) { now_ = c; }
    Cycles now() const { return now_; }
    /// @}

    /// @name Emission
    /// @{
    void
    span(const char *name, TraceCat cat, std::uint32_t tid, Cycles ts,
         Cycles dur, std::initializer_list<TraceArg> args = {})
    {
        emit(name, cat, 'X', true, tid, ts, dur, args);
    }

    void
    instant(const char *name, TraceCat cat, std::uint32_t tid, Cycles ts,
            std::initializer_list<TraceArg> args = {})
    {
        emit(name, cat, 'i', true, tid, ts, 0, args);
    }

    /** Wall-clock span (µs from sweep start): engine queue/run spans.
     *  Tagged non-deterministic; the canonical writer drops them. */
    void
    wallSpan(const char *name, std::uint64_t ts_us, std::uint64_t dur_us,
             std::initializer_list<TraceArg> args = {})
    {
        emit(name, TraceCat::Engine, 'X', false, trace_engine_tid, ts_us,
             dur_us, args);
    }

    void
    emit(const char *name, TraceCat cat, char ph, bool deterministic,
         std::uint32_t tid, std::uint64_t ts, std::uint64_t dur,
         std::initializer_list<TraceArg> args)
    {
        if (!enabled())
            return;
        TraceEvent &e = slot();
        e.name = name;
        e.cat = cat;
        e.ph = ph;
        e.deterministic = deterministic;
        e.pid = pid_;
        e.tid = tid;
        e.ts = ts;
        e.dur = dur;
        e.nargs = 0;
        for (const TraceArg &a : args) {
            if (e.nargs >= e.args.size())
                break;
            e.args[e.nargs++] = a;
        }
    }
    /// @}

    /// @name Introspection (oldest event first)
    /// @{
    std::size_t size() const { return count; }
    std::uint64_t dropped() const { return dropped_; }

    const TraceEvent &
    event(std::size_t i) const
    {
        return ring[(head + i) % ring.size()];
    }
    /// @}

  private:
    /** Next slot, overwriting the oldest record when full. */
    TraceEvent &
    slot()
    {
        if (count < ring.size())
            return ring[(head + count++) % ring.size()];
        TraceEvent &e = ring[head];
        head = (head + 1) % ring.size();
        ++dropped_;
        return e;
    }

    std::vector<TraceEvent> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint64_t dropped_ = 0;

    std::uint64_t sample = 1;
    std::uint64_t walk_seq = 0;
    std::uint64_t walks_sampled = 0;

    std::uint32_t pid_ = 0;
    Cycles now_ = 0;
};

/** One timeline lane: a buffer plus its Perfetto process name. */
struct TraceLane
{
    const TraceBuffer *buffer = nullptr;
    std::string name;
};

/**
 * Serialize lanes as one Chrome trace-event JSON document.
 *
 * Events keep each buffer's emission order; lanes are concatenated in
 * the order given (submission order for sweeps), so the bytes are a
 * pure function of the lane contents. @p canonical drops events
 * tagged non-deterministic (engine wall-clock spans). The document's
 * `otherData.dropped_events` counts the events every lane's ring
 * overwrote, so a reader can tell a whole trace from a tail.
 *
 * @return success (also warns, via the log sink, when events were
 *         dropped to ring overflow).
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<TraceLane> &lanes,
                      bool canonical = false);

/** Single-buffer convenience. */
bool writeChromeTrace(const std::string &path, const TraceBuffer &buffer,
                      const std::string &process_name,
                      bool canonical = false);

} // namespace necpt

#endif // NECPT_COMMON_TRACE_EVENTS_HH
