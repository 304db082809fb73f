/**
 * @file
 * Elastic cuckoo hash table (Section 2.3, following Skarlatos et al.,
 * ASPLOS'20).
 *
 * A d-ary cuckoo hash table where each way is a contiguous array of
 * cache-line-sized slots in (simulated) physical memory. The table is
 * *elastic*: when the load factor crosses a threshold, a new generation
 * of 2x capacity is allocated and entries migrate gradually (a few per
 * subsequent insert), so the table never stops the world. While a resize
 * is in flight, a key can live in either generation and hardware probes
 * must cover both — probeAddrs() reflects that.
 *
 * A caller that knows how many keys are coming (prefault) can
 * reserve() them first: the table then starts at the size elastic
 * growth would have reached, and the writes never resize.
 *
 * Cuckoo displacements and resize migrations *move* entries between ways
 * and addresses. The table reports each move through a callback so the
 * OS can update Cuckoo Walk Tables, and counts moves — the reason the
 * paper's designs never cache hPTE->gPTE pointers (Section 4.4).
 */

#ifndef NECPT_PT_CUCKOO_HH
#define NECPT_PT_CUCKOO_HH

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/fault.hh"
#include "common/function_ref.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/trace_events.hh"
#include "pt/pte.hh"

namespace necpt
{

/** Configuration of one elastic cuckoo table. */
struct CuckooConfig
{
    int ways = 3;                        //!< the paper's d
    std::uint64_t initial_slots = 16384; //!< slots per way (Table 2)
    std::uint64_t slot_bytes = 64;       //!< one cache line per slot
    double resize_threshold = 0.6;       //!< load factor triggering upsize
    int migrate_per_insert = 8;          //!< gradual-migration rate
    int max_kicks = 32;                  //!< cuckoo path bound
    std::uint64_t seed = 0xEC97;         //!< hash family seed
};

/**
 * @tparam ValueT payload stored per key (e.g. a block of 8 PTEs).
 *
 * In the simulator's own memory, each generation keeps every way's keys
 * in one packed array and the payloads in a parallel array, so a probe
 * reads 8 bytes and only a hit touches its payload. The all-ones key
 * marks a free slot and cannot be stored.
 */
template <typename ValueT>
class ElasticCuckooTable
{
  public:
    /** A successful find: the payload plus its hardware location. */
    struct FindResult
    {
        ValueT *value = nullptr;
        int way = -1;
        Addr slot_addr = invalid_addr;
        bool in_old_generation = false;

        explicit operator bool() const { return value != nullptr; }
    };

    /** Outcome of upsert(): the way holding the key afterwards, and
     *  whether the call (re)placed it — in which case the move callback
     *  has already reported that location with the updated payload. */
    struct Upserted
    {
        int way = -1;
        bool placed = false;
    };

    /** Reserved key marking a free slot. */
    static constexpr std::uint64_t empty_key = ~0ULL;

    /** Most ways (hash functions) a table can have. */
    static constexpr int max_ways = 8;

    /** Invoked whenever a key settles at a (possibly new) location,
     *  with the payload it carries there. Non-owning: the registered
     *  callee must outlive the table's use (the ECPT stores its
     *  per-size notifier functors as members). */
    using MoveCallback = FunctionRef<void(std::uint64_t key,
                                          const ValueT &value, int way)>;

    ElasticCuckooTable(RegionAllocator &allocator,
                       const CuckooConfig &config)
        : alloc(allocator), cfg(config), rng(config.seed ^ 0xC0C0)
    {
        NECPT_ASSERT(cfg.ways >= 2 && cfg.ways <= max_ways);
        std::uint64_t sm = cfg.seed;
        for (int w = 0; w < cfg.ways; ++w)
            hashes[w] = HashFunction(splitmix64(sm));
        live = makeGeneration(cfg.initial_slots);
    }

    ~ElasticCuckooTable()
    {
        releaseGeneration(live);
        if (old)
            releaseGeneration(*old);
    }

    ElasticCuckooTable(const ElasticCuckooTable &) = delete;
    ElasticCuckooTable &operator=(const ElasticCuckooTable &) = delete;

    /** Register the OS callback for way updates (CWT maintenance). */
    void setMoveCallback(MoveCallback cb) { on_move = cb; }

    /** Arm (or disarm, with nullptr) fault injection: forced kick
     *  exhaustion and forced mid-probe resize windows. */
    void setFaultPlan(FaultPlan *plan) { fault_plan = plan; }

    /** Attach the event tracer: kick chains and resize windows are
     *  recorded (aggregated per insert) at the tracer's ambient clock.
     *  Null detaches (the default). */
    void setTracer(TraceBuffer *t) { tracer = t; }

    /**
     * Insert or update @p key with @p value. Displaced entries are
     * cuckoo-rehashed; the table resizes itself when needed.
     */
    void
    insert(std::uint64_t key, const ValueT &value)
    {
        upsert(key, [&](ValueT &slot) { slot = value; });
    }

    /**
     * Insert-or-update @p key in place with one lookup: @p update runs
     * once, on the resident payload or on a value-initialized one that
     * is then placed, and stands for @p updates writes to the key.
     * Each write gets insert()'s fault draw, migration step, resize
     * check and kick event, so the table ends exactly as after
     * @p updates single upserts of the key: from the second write on,
     * a single upsert only finds the key and writes its payload, and
     * neither placement nor migration reads a payload.
     */
    template <typename Fn>
    Upserted
    upsert(std::uint64_t key, Fn &&update, int updates = 1)
    {
        NECPT_ASSERT(key != empty_key && updates >= 1);
        tracked = {};
        tracked_key = key;
        tracking = true;
        for (int write = 0; write < updates; ++write) {
            // Injected resize window: open a fresh two-generation
            // phase so this write (and the probes that follow) run
            // mid-resize.
            if (fault_plan && !old && fault_plan->forceResizeWindow()) {
                ++injected_resizes;
                startResize();
            }
            const std::uint64_t kicks_before = rehash_moves;
            if (write == 0) {
                if (FindResult hit = find(key)) {
                    update(*hit.value);
                    tracked.way = hit.way;
                } else {
                    ValueT value{};
                    update(value);
                    homeless.emplace_back(key, value);
                    settle();
                }
            }
            migrateSome();
            if (!old && loadFactor() > cfg.resize_threshold)
                startResize();
            // One aggregated event per displacing write (never one per
            // kick: prefault storms would flush the whole ring).
            if (tracer && rehash_moves > kicks_before)
                tracer->instant(
                    "cuckoo.kicks", TraceCat::Cuckoo, trace_pt_tid,
                    tracer->now(),
                    {{"kicks", static_cast<std::int64_t>(rehash_moves
                                                         - kicks_before)},
                     {"key", static_cast<std::int64_t>(key)}});
        }
        tracking = false;
        NECPT_ASSERT(tracked.way >= 0);
        return tracked;
    }

    /** Look up @p key. */
    FindResult
    find(std::uint64_t key)
    {
        // Empty tables answer without hashing: a multi-size lookup
        // probes every page-size table, and for most workloads all but
        // one of them stays empty for the whole run.
        if ((live.used == 0 && (!old || old->used == 0))
            || key == empty_key)
            return {};
        // One hash pass covers both generations: the raw 64-bit values
        // are generation-independent, only the modulo differs.
        std::uint64_t raw[max_ways];
        rawHashes(key, raw);
        if (FindResult r = findIn(live, key, false, raw))
            return r;
        if (old) {
            if (FindResult r = findIn(*old, key, true, raw))
                return r;
        }
        return {};
    }

    /**
     * Remove @p key. Covers both generations *and* the homeless list
     * (an entry can be parked there mid-settle under injected kick
     * exhaustion), and afterwards re-runs settle() so any parked entry
     * can claim the slot the deletion just freed — the homeless-slot
     * repair half of the delete path. @return true when it was present.
     */
    bool
    erase(std::uint64_t key)
    {
        bool hit = eraseIn(live, key);
        if (!hit && old)
            hit = eraseIn(*old, key);
        for (auto it = homeless.begin(); it != homeless.end(); ++it) {
            if (it->first == key) {
                homeless.erase(it);
                hit = true;
                break;
            }
        }
        if (hit) {
            ++erase_count;
            settle();
        }
        return hit;
    }

    /**
     * Hardware probe plan: the slot addresses a walker must fetch to
     * find @p key, restricted to ways in @p way_mask (bit w = way w).
     * During a resize both generations are probed.
     */
    void
    probeAddrs(std::uint64_t key, unsigned way_mask,
               std::vector<Addr> &out) const
    {
        std::uint64_t raw[max_ways];
        rawHashes(key, raw);
        for (int w = 0; w < cfg.ways; ++w) {
            if (!(way_mask & (1u << w)))
                continue;
            out.push_back(slotAddr(live, w, reduce(live, raw[w])));
            if (old)
                out.push_back(slotAddr(*old, w, reduce(*old, raw[w])));
        }
    }

    /// @name Capacity and accounting
    /// @{
    std::uint64_t size() const { return live.used + (old ? old->used : 0); }

    double
    loadFactor() const
    {
        const auto capacity = static_cast<double>(live.slots * cfg.ways);
        return static_cast<double>(live.used) / capacity;
    }

    bool resizing() const { return old.has_value(); }

    std::uint64_t
    structureBytes() const
    {
        std::uint64_t bytes = live.slots * cfg.ways * cfg.slot_bytes;
        if (old)
            bytes += old->slots * cfg.ways * cfg.slot_bytes;
        return bytes;
    }

    /** Cuckoo displacements observed (Section 4.4 staleness driver). */
    std::uint64_t rehashMoves() const { return rehash_moves; }

    /** Successful deletions (churn / coherence accounting). */
    std::uint64_t eraseCount() const { return erase_count; }

    /** Entries migrated by elastic resizes. */
    std::uint64_t resizeMoves() const { return resize_moves; }

    /** Completed resize starts. */
    std::uint64_t resizeCount() const { return resizes; }

    /** Injected-fault accounting (tests / audits). */
    std::uint64_t injectedKickFailures() const { return injected_kicks; }
    std::uint64_t injectedResizes() const { return injected_resizes; }

    /** Entries currently parked off-table. Zero between inserts: the
     *  settle() loop always re-places (growing as needed) before
     *  insert() returns — the homeless-entry bound the fault tests
     *  assert under forced kick exhaustion. */
    std::size_t homelessCount() const { return homeless.size(); }

    std::uint64_t slotsPerWay() const { return live.slots; }
    int numWays() const { return cfg.ways; }
    std::uint64_t slotBytes() const { return cfg.slot_bytes; }

    /** Base address of live way @p w (tests / debugging). */
    Addr wayBase(int w) const { return live.base[w]; }
    /// @}

    /**
     * Pre-size an empty table for @p entries keys: replace its
     * generation with the one elastic growth would end on after
     * @p entries inserts, the smallest initial_slots * 2^k whose load
     * factor stays at or under the resize threshold, so filling it
     * never resizes or migrates. A table holding a key or mid-resize,
     * or one that would not have grown, is left as it is.
     */
    void
    reserve(std::uint64_t entries)
    {
        if (size() != 0 || old)
            return;
        std::uint64_t slots = live.slots;
        // loadFactor()'s expression, so the boundary is the same one.
        while (static_cast<double>(entries)
                   / static_cast<double>(slots * cfg.ways)
               > cfg.resize_threshold)
            slots *= 2;
        if (slots == live.slots)
            return;
        Generation sized = makeGeneration(slots);
        releaseGeneration(live);
        live = std::move(sized);
    }

    /** Force any in-flight resize to complete (used by tests). */
    void
    finishResize()
    {
        while (old)
            migrateSome();
    }

    /** Visit every resident entry: fn(key, value, way, in_old_gen).
     *  Used by invariant audits to cross-check CWT consistency. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachIn(live, false, fn);
        if (old)
            forEachIn(*old, true, fn);
    }

  private:
    struct Generation
    {
        std::uint64_t slots = 0;
        std::uint64_t used = 0;
        std::uint64_t slot_mask = 0; //!< slots-1 when power of 2, else 0
        /** Way-major packed keys ([way * slots + slot]; empty_key when
         *  free) and the payloads at the same indices. */
        std::vector<std::uint64_t> keys;
        std::vector<ValueT> values;
        std::vector<Addr> base;         //!< per-way region base
        std::uint64_t migrate_scan = 0; //!< way-major scan index

        std::uint64_t at(int way, std::uint64_t idx) const
        {
            return static_cast<std::uint64_t>(way) * slots + idx;
        }
    };

    Generation
    makeGeneration(std::uint64_t slots)
    {
        Generation gen;
        gen.slots = slots;
        gen.slot_mask = isPowerOf2(slots) ? slots - 1 : 0;
        gen.keys.assign(slots * cfg.ways, empty_key);
        gen.values.resize(slots * cfg.ways);
        for (int w = 0; w < cfg.ways; ++w)
            gen.base.push_back(alloc.allocRegion(slots * cfg.slot_bytes));
        return gen;
    }

    void
    releaseGeneration(Generation &gen)
    {
        for (std::size_t w = 0; w < gen.base.size(); ++w)
            alloc.freeRegion(gen.base[w], gen.slots * cfg.slot_bytes);
        gen.keys = std::vector<std::uint64_t>();
        gen.values = std::vector<ValueT>();
        gen.base.clear();
    }

    template <typename Fn>
    static void
    forEachIn(const Generation &gen, bool is_old, Fn &fn)
    {
        for (std::uint64_t i = 0; i < gen.keys.size(); ++i)
            if (gen.keys[i] != empty_key)
                fn(gen.keys[i], gen.values[i],
                   static_cast<int>(i / gen.slots), is_old);
    }

    /** Compute all ways' raw hashes of @p key in one pass. */
    void
    rawHashes(std::uint64_t key, std::uint64_t *out) const
    {
        hashWays(hashes.data(), cfg.ways, key, out);
    }

    /** Reduce a raw hash to a slot index. The default slot counts are
     *  powers of 2 (16384, doubling), where masking and the modulo the
     *  old code computed give identical indices. */
    static std::uint64_t
    reduce(const Generation &gen, std::uint64_t raw)
    {
        return gen.slot_mask ? (raw & gen.slot_mask) : (raw % gen.slots);
    }

    std::uint64_t
    slotIndex(const Generation &gen, int way, std::uint64_t key) const
    {
        return reduce(gen, hashes[way](key));
    }

    Addr
    slotAddr(const Generation &gen, int way, std::uint64_t idx) const
    {
        return gen.base[way] + idx * cfg.slot_bytes;
    }

    FindResult
    findIn(Generation &gen, std::uint64_t key, bool is_old,
           const std::uint64_t *raw)
    {
        for (int w = 0; w < cfg.ways; ++w) {
            const auto idx = reduce(gen, raw[w]);
            const auto at = gen.at(w, idx);
            if (gen.keys[at] == key)
                return {&gen.values[at], w, slotAddr(gen, w, idx), is_old};
        }
        return {};
    }

    bool
    eraseIn(Generation &gen, std::uint64_t key)
    {
        for (int w = 0; w < cfg.ways; ++w) {
            const auto at = gen.at(w, slotIndex(gen, w, key));
            if (gen.keys[at] == key) {
                gen.keys[at] = empty_key;
                --gen.used;
                return true;
            }
        }
        return false;
    }

    /**
     * Cuckoo placement into the live generation, displacing entries
     * along a bounded random-walk path. On failure the carried entry is
     * parked on the homeless list and false is returned.
     */
    bool
    tryPlace(std::uint64_t key, const ValueT &value)
    {
        // Injected kick exhaustion: park the entry as if the bounded
        // random walk ran out. The caller must NOT double the table
        // for it (a probabilistic site would compound doublings into
        // unbounded growth); the plan never fires twice in a row, so
        // the immediate retry placement is genuine.
        if (fault_plan && fault_plan->forceKickExhaustion()) {
            ++injected_kicks;
            kick_injected = true;
            homeless.emplace_back(key, value);
            return false;
        }
        std::uint64_t cur_key = key;
        ValueT cur_value = value;
        int last_way = -1;
        std::uint64_t raw[max_ways];
        for (int kick = 0; kick <= cfg.max_kicks; ++kick) {
            rawHashes(cur_key, raw);
            for (int w = 0; w < cfg.ways; ++w) {
                const auto at = live.at(w, reduce(live, raw[w]));
                if (live.keys[at] == empty_key) {
                    live.keys[at] = cur_key;
                    live.values[at] = cur_value;
                    ++live.used;
                    notifyMove(cur_key, live.values[at], w, kick > 0);
                    return true;
                }
            }
            int w;
            do {
                w = static_cast<int>(rng.below(cfg.ways));
            } while (w == last_way && cfg.ways > 1);
            const auto at = live.at(w, reduce(live, raw[w]));
            std::swap(cur_key, live.keys[at]);
            std::swap(cur_value, live.values[at]);
            notifyMove(live.keys[at], live.values[at], w, true);
            last_way = w;
        }
        homeless.emplace_back(cur_key, cur_value);
        return false;
    }

    /** Place every parked entry, growing the table as needed. */
    void
    settle()
    {
        while (!homeless.empty()) {
            auto [key, value] = homeless.back();
            homeless.pop_back();
            if (!tryPlace(key, value)) {
                if (kick_injected) {
                    // Injected exhaustion: the entry is parked, but
                    // growing for it would let the fault rate compound
                    // into runaway doubling. Retry instead — the next
                    // placement is guaranteed genuine.
                    kick_injected = false;
                    continue;
                }
                // tryPlace parked the carried entry again; grow so the
                // next round has double the space. Termination: capacity
                // doubles every failure while |homeless| is bounded.
                startResize();
            }
        }
    }

    void
    notifyMove(std::uint64_t key, const ValueT &value, int way,
               bool was_displacement)
    {
        if (was_displacement)
            ++rehash_moves;
        if (tracking && key == tracked_key)
            tracked = {way, true};
        if (on_move)
            on_move(key, value, way);
    }

    /**
     * Begin an elastic upsize: the live generation retires and a 2x
     * generation becomes live. If a previous resize is still in flight,
     * its remaining entries are drained to the homeless list first (a
     * rare stop-the-world corner; the common path is gradual).
     */
    void
    startResize()
    {
        if (old) {
            for (std::uint64_t i = 0; i < old->keys.size(); ++i) {
                if (old->keys[i] != empty_key) {
                    homeless.emplace_back(old->keys[i], old->values[i]);
                    old->keys[i] = empty_key;
                    --old->used;
                }
            }
            releaseGeneration(*old);
            old.reset();
        }
        Generation bigger = makeGeneration(live.slots * 2);
        old.emplace(std::move(live));
        live = std::move(bigger);
        ++resizes;
        if (tracer)
            tracer->instant(
                "cuckoo.resize.begin", TraceCat::Cuckoo, trace_pt_tid,
                tracer->now(),
                {{"live_slots", static_cast<std::int64_t>(live.slots)},
                 {"resizes", static_cast<std::int64_t>(resizes)}});
    }

    /** Move a few entries from the retiring generation (gradual). */
    void
    migrateSome()
    {
        if (!old)
            return;
        int moved = 0;
        const std::uint64_t total = old->slots * cfg.ways;
        while (old->migrate_scan < total
               && moved < cfg.migrate_per_insert) {
            const auto at = old->migrate_scan++;
            if (old->keys[at] != empty_key) {
                const auto key = old->keys[at];
                const auto value = old->values[at];
                old->keys[at] = empty_key;
                --old->used;
                ++resize_moves;
                ++moved;
                if (!tryPlace(key, value)) {
                    if (kick_injected) {
                        // Injected exhaustion mid-migration: re-place
                        // without growing (see settle()).
                        kick_injected = false;
                        settle();
                        return;
                    }
                    // Parked; grow and settle synchronously. startResize
                    // drains what is left of the current old generation,
                    // so the loop below terminates via the reset old.
                    startResize();
                    settle();
                    return;
                }
            }
        }
        if (old->migrate_scan >= total) {
            NECPT_ASSERT(old->used == 0);
            releaseGeneration(*old);
            old.reset();
            if (tracer)
                tracer->instant(
                    "cuckoo.resize.end", TraceCat::Cuckoo, trace_pt_tid,
                    tracer->now(),
                    {{"moves",
                      static_cast<std::int64_t>(resize_moves)}});
        }
    }

    RegionAllocator &alloc;
    CuckooConfig cfg;
    Rng rng;
    std::array<HashFunction, max_ways> hashes;
    Generation live;
    std::optional<Generation> old;
    MoveCallback on_move;
    std::vector<std::pair<std::uint64_t, ValueT>> homeless;

    FaultPlan *fault_plan = nullptr;
    TraceBuffer *tracer = nullptr;
    /** Set by tryPlace when its failure was injected, so the caller
     *  retries instead of doubling the table. */
    bool kick_injected = false;

    /** upsert()'s key while it runs: notifyMove records where it
     *  settles, so the caller learns its way without another find. */
    bool tracking = false;
    std::uint64_t tracked_key = 0;
    Upserted tracked;

    std::uint64_t rehash_moves = 0;
    std::uint64_t resize_moves = 0;
    std::uint64_t resizes = 0;
    std::uint64_t erase_count = 0;
    std::uint64_t injected_kicks = 0;
    std::uint64_t injected_resizes = 0;
};

} // namespace necpt

#endif // NECPT_PT_CUCKOO_HH
