/**
 * @file
 * The trace-driven timing model that glues everything together:
 * workload stream -> TLB hierarchy -> page walker -> memory hierarchy,
 * with warm-up and measured phases (Section 8 methodology).
 *
 * Timing model: a 4-issue out-of-order core retires non-memory
 * instructions at a base CPI; TLB misses serialize the pipeline for
 * the full walk latency (address translation is on the critical path),
 * while data-access latency is partially hidden by the 128-entry ROB
 * (an exposure factor models the overlap). This is deliberately
 * simpler than the paper's cycle-level backend but preserves what the
 * evaluation measures: relative execution time across page-table
 * organizations, MMU busy cycles, and cache/DRAM interaction.
 *
 * Multi-core mode (SimParams::cores > 1) runs one workload instance
 * per core, multi-programmed, with private L1/L2/TLBs/walkers and a
 * shared L3 + DRAM — the contention regime of the paper's 8-core
 * machine.
 *
 * Execution is event-driven: a deterministic (cycle, priority,
 * sequence)-ordered scheduler interleaves per-core step events with
 * memory-completion pumps. With max_outstanding_walks == 1 (default)
 * each L2-TLB miss runs its walk synchronously inside the core's step
 * — the legacy serialized timing, reproduced cycle- and byte-exactly.
 * With max_outstanding_walks > 1 a miss issues a resumable WalkMachine
 * and the core keeps retiring independent work while up to that many
 * walks are in flight, contending for MSHRs and DRAM banks over
 * simulated time (the paper's parallelism argument, Section 3).
 */

#ifndef NECPT_SIM_SIMULATOR_HH
#define NECPT_SIM_SIMULATOR_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coherence/controller.hh"
#include "common/fault.hh"
#include "common/metrics.hh"
#include "common/trace_events.hh"
#include "mem/hierarchy.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/tlb.hh"
#include "sim/config.hh"
#include "walk/walker.hh"
#include "workloads/workload.hh"

namespace necpt
{

class ChurnSource;
class CriticalPathRecorder;
class TimeSeriesBuffer;

/** Run-length and model knobs. */
struct SimParams
{
    std::uint64_t warmup_accesses = 200'000;
    std::uint64_t measure_accesses = 1'000'000;
    std::uint64_t scale_denominator = 16; //!< Table-4 footprint divisor
    std::uint64_t seed = 0xD15EA5E;
    int cores = 1;               //!< simulated cores (multi-programmed)

    /**
     * Per-core cap on concurrently in-flight page walks (memory-level
     * parallelism of the translation machinery). 1 — the default —
     * serializes walks on the core exactly like the legacy timing
     * model; higher values let independent L2-TLB misses overlap:
     * each miss issues a resumable walk machine and the core parks
     * only when the cap is reached. Concurrent walks for the same
     * page are not coalesced unless @ref walk_coalescing is set
     * (each models its own probe traffic).
     */
    int max_outstanding_walks = 1;
    /** The largest max_outstanding_walks the Simulator accepts. */
    static constexpr int max_outstanding_walks_limit = 64;

    /**
     * MSHR-style same-page walk coalescing (off by default). With
     * overlapped walks enabled, an L2-TLB miss whose 4KB guest page
     * already has a walk in flight on this core parks on that walk's
     * coalescer entry instead of issuing a duplicate machine; when the
     * primary retires, its translation fans out to every waiter (data
     * access at completion). A waiter is recorded as a walk whose
     * entire latency bins to AttrCause::Coalesce, so the walks ≈
     * L2-TLB-misses invariant and cycle-ledger conservation both hold
     * exactly. Waiters do not count toward the max_outstanding_walks
     * cap — that is the parallelism the MSHR merge buys. Requires
     * max_outstanding_walks > 1 (the Simulator throws ConfigError
     * otherwise). Off, the simulation is byte-identical to a build
     * without the feature; on, it is deterministic at any --jobs.
     */
    bool walk_coalescing = false;

    /**
     * Fault injection (off by default). When any site is armed the
     * Simulator builds a FaultPlan seeded by @ref fault_seed (falling
     * back to @ref seed when zero) and threads it through the pools,
     * cuckoo tables, and memory hierarchy; the run ends with an
     * ECPT/CWT invariant audit.
     */
    FaultSpec faults{};
    std::uint64_t fault_seed = 0;

    /**
     * Translation churn (off by default). When any source is armed the
     * Simulator builds a CoherenceController plus the spec'd churn
     * generators and interleaves their invalidation streams — and the
     * resulting TLB-shootdown rounds — with the access kernels on the
     * event scheduler. An all-defaults spec leaves every run
     * byte-identical to a build without the subsystem.
     */
    ChurnSpec churn{};

    /**
     * Walk-level event tracer (null = tracing off, the default). The
     * Simulator threads it through the walkers, both page tables, the
     * memory hierarchy, and the fault plan, and keeps its ambient
     * clock in step with the leading core.
     */
    TraceBuffer *tracer = nullptr;

    /**
     * Interval metrics sampler (null = off). Every interval() measured
     * cycles the Simulator snapshots the full registry scalar set into
     * the buffer from an end-of-cycle scheduler event, producing the
     * necpt-timeseries-v1 stream.
     */
    TimeSeriesBuffer *timeseries = nullptr;

    /**
     * Critical-path recorder (null = off). When set, the Loop tells it
     * when each core's steps are scheduled and run, which step issued
     * each overlapped walk, and when walks retire and MLP-cap stalls
     * end; it sums each core's spine as the run goes for the per-core
     * critical-path report (necpt-run --critical-path). Its memory is
     * proportional to cores and in-flight walks, not to run length.
     */
    CriticalPathRecorder *critical_path = nullptr;
};

/**
 * Host wall-clock seconds one run spent in each phase. An execution
 * detail like a sweep job's wall_ms: JSON shows it where wall_ms is
 * shown, and it stays out of the metrics registry, the CSV, canonical
 * JSON and text output, which must be pure functions of the seed.
 */
struct HostPhaseTimes
{
    double build_s = 0;    //!< machine build and workload setup
    double prefault_s = 0; //!< NestedSystem::prefaultAll
    double warmup_s = 0;   //!< event loop up to the stats reset
    double measure_s = 0;  //!< the measured window
};

/** Everything a bench needs to regenerate the paper's numbers. */
struct SimResult
{
    std::string config;
    std::string app;

    std::uint64_t instructions = 0;
    Cycles cycles = 0;          //!< execution time (speedups = ratios)
    Cycles mmu_busy_cycles = 0; //!< Figure 10

    std::uint64_t l1_tlb_misses = 0;
    std::uint64_t l2_tlb_misses = 0;
    std::uint64_t walks = 0;
    std::uint64_t mmu_requests = 0;

    double l2_mpki = 0;  //!< Figure 13(b): total L2 misses PKI
    double l3_mpki = 0;  //!< Figure 13(c)
    double mmu_rpki = 0; //!< Figure 13(a)
    double mmu_l2_misses_pki = 0;
    double avg_mshrs = 0;
    std::uint64_t max_mshrs = 0;
    double dram_row_hit_rate = 0;

    Histogram walk_latency{20, 64}; //!< Figure 11

    /** Figure 14 fractions + Section 9.4 step averages. */
    double guest_kind_frac[4] = {0, 0, 0, 0};
    double host_kind_frac[4] = {0, 0, 0, 0};
    double step_avg[3] = {0, 0, 0};

    /** Section 9.4 MMU-cache hit rates (nested ECPT only). */
    double stc_hit_rate = -1;
    double gcwc_pud_hit = -1, gcwc_pmd_hit = -1;
    double hcwc_pud_hit = -1, hcwc_pmd_hit = -1;
    double hcwc_pte_step1_hit = -1, hcwc_pte_step3_hit = -1;
    std::uint64_t hcwc_pte_step3_accesses = 0;
    /** Figure 12 windowed rates. */
    double adaptive_pte_rate = -1, adaptive_pmd_rate = -1;

    /** Section 9.5 memory accounting. */
    std::uint64_t guest_structure_bytes = 0;
    std::uint64_t host_structure_bytes = 0;
    std::uint64_t pte_bytes_total = 0;

    std::uint64_t guest_faults = 0;
    std::uint64_t host_faults = 0;

    /** Walk-overlap characterization ("walk.inflight" metrics): mean
     *  in-flight walks per core over the measured interval, and the
     *  peak on any single core. */
    double walk_inflight_avg = 0;
    std::uint64_t walk_inflight_max = 0;

    /** Where the run's host time went (never part of the results). */
    HostPhaseTimes host_time;

    /**
     * The scalar fields above, re-published under the unified dotted
     * metric names (walk.kind.guest.direct.frac, stc.hitrate,
     * adaptive.pte.rate, ...). Values are the very same doubles, so
     * consumers that switch to the map stay byte-identical.
     */
    std::map<std::string, double> metrics;
};

/**
 * One configured machine running one application.
 */
class Simulator
{
  public:
    Simulator(const ExperimentConfig &config, const SimParams &params);
    ~Simulator();

    /** Run @p app through warm-up + measurement and report. */
    SimResult run(const std::string &app);

    /** Factory producing per-core workload instances (seeded). */
    using WorkloadFactory =
        std::function<std::unique_ptr<Workload>(std::uint64_t seed)>;

    /**
     * Run an arbitrary workload (e.g. a replayed trace) through the
     * same warm-up + measurement pipeline.
     *
     * @param label result's app name
     * @param factory builds one instance per core
     * @param footprint_bytes sizing hint for the physical pools
     */
    SimResult runWith(const std::string &label,
                      const WorkloadFactory &factory,
                      std::uint64_t footprint_bytes);

    /// @name Introspection (valid after run(); used by tests/benches)
    /// @{
    NestedSystem &system() { return *sys; }
    Walker &walker(int core = 0) { return *walkers[core]; }
    MemoryHierarchy &memory() { return *mem; }
    TlbHierarchy &tlbs(int core = 0) { return *tlb[core]; }
    int numCores() const { return static_cast<int>(walkers.size()); }
    FaultPlan *faultPlan() { return fault_plan.get(); }
    CoherenceController *coherenceController() { return coherence.get(); }
    /// @}

    /**
     * Register every live component's statistics (walkers, TLBs,
     * caches, DRAM, cuckoo tables) with @p reg under @p prefix. Valid
     * once the machine is built, i.e. after run()/runWith(); entries
     * read the components live, so a later resetStats() is reflected.
     */
    void exportMetrics(MetricsRegistry &reg,
                       const std::string &prefix = "");

  private:
    /** Build system/memory/TLBs/walkers for @p footprint_bytes. */
    void buildMachine(std::uint64_t footprint_bytes,
                      const std::string &app);
    std::unique_ptr<Walker> makeWalker(int core);
    void resetStats();
    void fillResult(SimResult &result);

    ExperimentConfig cfg;
    SimParams params;

    /** Declared before the structures that poll it: members destruct
     *  in reverse order, so the plan outlives every injection site. */
    std::unique_ptr<FaultPlan> fault_plan;

    std::unique_ptr<NestedSystem> sys;
    std::unique_ptr<MemoryHierarchy> mem;
    std::vector<std::unique_ptr<TlbHierarchy>> tlb;
    std::unique_ptr<PomTlb> pom;
    std::vector<std::unique_ptr<Walker>> walkers;

    /** Coherence subsystem (null unless params.churn arms a source).
     *  Declared after the structures it holds raw pointers into. */
    std::unique_ptr<CoherenceController> coherence;
    std::vector<std::unique_ptr<ChurnSource>> churn_sources;
};

/** Convenience: build, run, return. */
SimResult runSim(const ExperimentConfig &config, const SimParams &params,
                 const std::string &app);

} // namespace necpt

#endif // NECPT_SIM_SIMULATOR_HH
