/**
 * @file
 * The full memory hierarchy: per-core L1/L2, shared L3, DRAM.
 *
 * Two access paths exist, matching the paper's methodology:
 *  - Core (demand) accesses probe L1 -> L2 -> L3 -> DRAM and fill all
 *    levels on the way back.
 *  - MMU (page-walk) accesses enter at the L2 ("MMU-initiated L2
 *    misses", Section 9.1) and fill L2/L3 only — so translation state
 *    competes with demand data for cache capacity, which is the cache-
 *    pollution effect behind Figure 13.
 *
 * MMU traffic is transactional: issueBatch() models a *parallel* group
 * of MMU requests — issued in waves bounded by the walker issue width,
 * misses bounded by the L2 MSHR count, the batch complete when the
 * slowest member returns — and registers a completion that fires when
 * the simulation reaches that cycle (drainUntil()/drainAll()). The
 * completion heap is the one record of pending transactions: the event
 * scheduler reads its front through the CompletionSource interface
 * and pumps each due cycle once. MSHR
 * occupancy and DRAM bank busy-intervals persist across transactions,
 * so a batch issued while another is still in flight queues behind the
 * resources the earlier one holds. This is how the simulator charges
 * wide nested-ECPT probe groups for bandwidth (Section 3/4) and how
 * overlapped walks contend with each other over simulated time.
 * batchAccess() is the synchronous wrapper: issue, drain, return — a
 * lone transaction against quiesced resources, the legacy timing.
 */

#ifndef NECPT_MEM_HIERARCHY_HH
#define NECPT_MEM_HIERARCHY_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/metrics.hh"
#include "common/trace_events.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/txn.hh"

namespace necpt
{

class FaultPlan;

/** Which level serviced an access. */
enum class MemLevel : std::uint8_t { L1, L2, L3, Dram };

/**
 * Exact split of an access's — or a batch's critical-line — latency.
 * Components always sum to the reported latency (integer equality):
 * this is what lets the walkers' cycle ledgers conserve every cycle
 * (common/cycle_ledger.hh). The issue/mshr members are only nonzero
 * for batches, where the slowest line may have waited for an issue
 * wave slot or a free MSHR before its access even began.
 */
struct MemBreakdown
{
    Cycles issue = 0;        //!< wave serialization before issue
    Cycles mshr = 0;         //!< MSHR-full stall before issue
    Cycles cache = 0;        //!< L1/L2/L3 service cycles
    Cycles dram_queue = 0;   //!< waiting behind a busy DRAM bank
    Cycles dram_service = 0; //!< row activate + column access
    Cycles dram_bus = 0;     //!< channel bus wait + burst
    Cycles fault = 0;        //!< injected latency spike

    Cycles
    total() const
    {
        return issue + mshr + cache + dram_queue + dram_service
            + dram_bus + fault;
    }
};

/** Outcome of a single hierarchy access. */
struct AccessResult
{
    Cycles latency;  //!< round-trip cycles from issue
    MemLevel level;  //!< level that serviced the request
};

/** Outcome of a parallel batch of MMU accesses. */
struct BatchResult
{
    Cycles latency = 0;       //!< issue-to-last-completion
    int requests = 0;         //!< batch size
    int l2_misses = 0;        //!< members that missed in L2
    int l3_misses = 0;        //!< members that went to DRAM
    /** Critical-line decomposition of @ref latency (zero for an empty
     *  batch). */
    MemBreakdown bd;
};

/** Geometry/timing of the whole hierarchy. */
struct MemHierarchyConfig
{
    CacheConfig l1{"L1", 32 * 1024, 8, 2, 8};
    CacheConfig l2{"L2", 512 * 1024, 8, 16, 20};
    /**
     * Table 2: the L3 is physically distributed, 2MB per slice; the
     * default single-core simulation models one slice (the per-core
     * share of the 8-core machine's 16MB).
     */
    CacheConfig l3{"L3", 2 * 1024 * 1024, 16, 56, 20};
    DramConfig dram{};
    int mmu_issue_width = 4;  //!< parallel walker requests per wave
};

/**
 * Owning facade over all cache levels and DRAM.
 */
class MemoryHierarchy final : public CompletionSource
{
  public:
    MemoryHierarchy(const MemHierarchyConfig &config, int cores);

    /** One demand or walker access starting at @p now. When @p bd is
     *  non-null it receives the exact latency decomposition. */
    AccessResult access(Addr addr, Cycles now, Requester requester,
                        int core, MemBreakdown *bd = nullptr);

    /**
     * A group of parallel MMU requests (one walk phase), synchronous:
     * issues the transaction and immediately drains every pending
     * completion, so the caller observes the legacy call-and-return
     * timing (the batch runs against quiesced MSHRs).
     *
     * @param addrs   byte addresses to fetch (deduplicated by line
     *                here); a view — the hierarchy copies what it needs
     *                before returning
     * @param now     issue cycle
     * @param core    issuing core
     * @param traced  the issuing walk is sampled: trace each request
     */
    BatchResult batchAccess(AddrSpan addrs, Cycles now, int core,
                            bool traced = false);

    BatchResult
    batchAccess(std::initializer_list<Addr> addrs, Cycles now, int core)
    {
        return batchAccess(AddrSpan(addrs.begin(), addrs.size()), now,
                           core);
    }

    /// @name Transactional (event-driven) interface
    /// @{

    /**
     * Issue a parallel MMU request group asynchronously. Every member
     * access is scheduled now (waves of mmu_issue_width per cycle,
     * misses bounded by the L2 MSHRs *still held by in-flight
     * transactions of this core*, DRAM bank busy-intervals shared with
     * everything issued earlier); @p cb fires when the simulation
     * drains past the completion cycle. An empty @p addrs completes at
     * @p now with a zero result. @p traced: the issuing walk is
     * sampled, so each request is traced with the level that served
     * it.
     */
    void issueBatch(AddrSpan addrs, Cycles now, int core,
                    TxnCallback cb = nullptr, bool traced = false);

    void
    issueBatch(std::initializer_list<Addr> addrs, Cycles now, int core,
               TxnCallback cb = nullptr)
    {
        issueBatch(AddrSpan(addrs.begin(), addrs.size()), now, core, cb);
    }

    // CompletionSource: the completion heap's front, and its drain.
    bool hasPending() const override { return !completions.empty(); }
    Cycles nextCompletionCycle() const override;
    void drainUntil(Cycles upto) override;

    /** Drain every pending transaction regardless of cycle. */
    void drainAll();

    /// @}

    /// @name Statistics accessors (Figure 13 and MSHR characterization)
    /// @{
    const SetAssocCache &l1(int core) const { return *l1s[core]; }
    const SetAssocCache &l2(int core) const { return *l2s[core]; }
    const SetAssocCache &l3() const { return *l3_; }
    const DramModel &dram() const { return dram_; }
    /** Time-weighted mean MSHR occupancy: miss-interval cycles
     *  integrated over the span between the first issue and the last
     *  completion observed since resetStats(). */
    double avgMshrsInUse() const;
    /** Peak concurrent MSHR occupancy (across in-flight txns too). */
    std::uint64_t maxMshrsInUse() const { return mshr_max; }
    /** Integral of MSHR occupancy over time (miss-cycles). */
    std::uint64_t mshrBusyCycles() const { return mshr_busy_cycles; }
    /// @}

    void resetStats();

    int numCores() const { return static_cast<int>(l1s.size()); }
    const MemHierarchyConfig &config() const { return cfg; }

    /** Arm (or disarm, with nullptr) injected latency spikes —
     *  modeling refresh storms, row conflicts, and contention bursts
     *  the average-latency DRAM model smooths over. */
    void setFaultPlan(FaultPlan *plan) { fault_plan = plan; }

    /** Attach the event tracer: MMU requests of traced walks (the
     *  batches issued with @c traced set) are recorded with the level
     *  that serviced them; injected latency spikes are recorded
     *  unconditionally. Null detaches. */
    void setTracer(TraceBuffer *tracer) { tracer_ = tracer; }

    /**
     * Register cache and DRAM statistics: "<prefix>mem.l{1,2}.coreN.*"
     * (the core index is dropped for single-core machines),
     * "<prefix>mem.l3.*" — each split by demand/mmu requester — plus
     * "<prefix>dram.reads" / "<prefix>dram.row_hitrate" and the MSHR
     * characterization.
     */
    void registerMetrics(MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    /** One issued-but-not-drained transaction. */
    struct PendingTxn
    {
        int core = 0;
        Cycles issued = 0;
        Cycles completes = 0;
        BatchResult batch;
        /** Completion cycles of this txn's L2-miss lines: the MSHR
         *  busy-intervals later transactions queue behind. */
        std::vector<Cycles> miss_done;
        TxnCallback cb;
    };

    MemHierarchyConfig cfg;
    FaultPlan *fault_plan = nullptr;
    TraceBuffer *tracer_ = nullptr;
    std::vector<std::unique_ptr<SetAssocCache>> l1s;
    std::vector<std::unique_ptr<SetAssocCache>> l2s;
    std::unique_ptr<SetAssocCache> l3_;
    DramModel dram_;

    /**
     * Transaction store, tuned for the overlapped-walk hot loop where
     * several transactions per core are in flight at once:
     *
     *  - @ref slots holds every transaction in a stable slot (drained
     *    slots go on the issuing core's free list, so miss_done
     *    capacity survives and steady-state issue/drain never
     *    allocates);
     *  - @ref completions is a min-heap of (completes, issue order)
     *    over the live slots — drainUntil() pops it instead of
     *    scanning, the heap order IS the canonical completion order,
     *    and the event scheduler reads its front to pump the next
     *    due cycle;
     *  - @ref live_by_core lists each core's in-flight slots, so
     *    issueBatch()'s MSHR seed walks only the issuing core's
     *    transactions instead of everyone's.
     */
    std::vector<PendingTxn> slots;

    /** Heap entry: completion key plus the slot it resolves to. */
    struct CompletionKey
    {
        Cycles completes = 0;
        std::uint64_t issued = 0; //!< issue order: same-cycle tie-break
        std::uint32_t slot = 0;
    };

    /** Min-heap comparator: does @p a complete after @p b? */
    struct CompletesLater
    {
        bool
        operator()(const CompletionKey &a, const CompletionKey &b) const
        {
            if (a.completes != b.completes)
                return a.completes > b.completes;
            return a.issued > b.issued;
        }
    };

    std::vector<CompletionKey> completions;
    std::vector<std::vector<std::uint32_t>> live_by_core;
    std::vector<std::vector<std::uint32_t>> free_by_core;
    std::uint64_t next_issued = 0;

    /** issueBatch() working sets, reused across calls (capacity
     *  retained; issueBatch never recurses). */
    std::vector<Addr> lines_scratch;
    std::vector<Cycles> outstanding_scratch;

    /** Time-weighted MSHR characterization (Section 9.3): occupancy
     *  integrated over miss intervals, and the observed activity span
     *  it is averaged over. */
    std::uint64_t mshr_busy_cycles = 0;
    Cycles mshr_window_first = 0;
    Cycles mshr_window_last = 0;
    bool mshr_window_open = false;
    std::uint64_t mshr_max = 0;
};

} // namespace necpt

#endif // NECPT_MEM_HIERARCHY_HH
