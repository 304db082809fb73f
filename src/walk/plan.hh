/**
 * @file
 * ECPT walk planning: turn Cuckoo-Walk-Cache contents into the minimal
 * set of (page size, way) probes for a lookup, and classify the outcome
 * as a Direct / Size / Partial / Complete walk (Section 9.4).
 */

#ifndef NECPT_WALK_PLAN_HH
#define NECPT_WALK_PLAN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mmu/cwc.hh"
#include "pt/ecpt.hh"
#include "walk/walker.hh"

namespace necpt
{

/** The probe set an ECPT walk must issue for one address. */
struct EcptProbePlan
{
    /** Per page size: bitmask of ways to probe (0 = skip the table). */
    std::array<unsigned, num_page_sizes> way_mask{0, 0, 0};
    /** CWC levels that missed and want a background refill. */
    std::array<bool, num_page_sizes> cwc_missed{false, false, false};
    WalkKind kind = WalkKind::Complete;

    int
    tablesProbed() const
    {
        int n = 0;
        for (unsigned m : way_mask)
            n += (m != 0);
        return n;
    }
};

/** Planner knobs (differ between steps and designs). */
struct PlanOptions
{
    /**
     * Consult (and later refill) the PTE-level CWC. Requires the table
     * to actually maintain a PTE CWT; gated adaptively in Step 3 of the
     * Advanced design (Section 4.2).
     */
    bool use_pte_info = false;
    /** When set, PTE/PMD CWC outcomes feed the adaptive controller. */
    AdaptiveCwcController *adaptive = nullptr;
    Cycles now = 0;
};

/**
 * Build the probe plan for @p va against @p pt using @p cwc.
 */
EcptProbePlan planEcptWalk(const EcptPageTable &pt, CuckooWalkCache &cwc,
                           Addr va, const PlanOptions &options);

/**
 * Classify a plan by how many probes/tables it needs.
 */
WalkKind classifyPlan(const EcptProbePlan &plan, int ways);

/**
 * Refill the CWC levels that missed during planning from the software
 * CWTs, returning the (physical, in @p pt 's address space) addresses of
 * the CWT probe traffic so the walker can issue it in the background.
 * For the *guest* table those addresses are guest-physical and the
 * caller must translate them (STC path, Section 4.1).
 */
void collectCwcRefills(const EcptPageTable &pt, CuckooWalkCache &cwc,
                       Addr va, const EcptProbePlan &plan,
                       const PlanOptions &options,
                       std::vector<Addr> &fetch_addrs);

/// @name Shared probe executor
/// The plan→issue→collect sequence every ECPT walker runs per probe
/// phase, hoisted out of the per-design walkers so the asynchronous
/// port edits one place.
/// @{

/**
 * Append the probe addresses @p plan selects for @p va against @p pt
 * (one entry per (page size, way) slot to fetch).
 *
 * @return the number of addresses appended.
 */
std::size_t appendPlannedProbes(const EcptPageTable &pt, Addr va,
                                const EcptProbePlan &plan,
                                std::vector<Addr> &out);

/**
 * Charge one executed probe phase to the walker statistics:
 * mmu_requests always; the Section-9.4 per-step probe/latency tallies
 * when @p step is a nested-ECPT step index (0-based; pass -1 for
 * designs without the three-step structure). When @p ledger is
 * non-null the batch's critical-line decomposition is charged to it
 * (cycle attribution; the split sums to batch.latency exactly).
 */
void chargeProbePhase(WalkerStats &stats, int step,
                      const BatchResult &batch,
                      CycleLedger *ledger = nullptr);

/**
 * Synchronous probe phase: issue @p addrs as one parallel batch at
 * @p now, drain it, and charge the statistics (the legacy walker
 * timing; resumable walk machines issue the same transaction through
 * MemoryHierarchy::issueBatch and charge on completion instead).
 * @p traced: the walk is sampled, so its requests are traced.
 */
BatchResult executeProbePhase(MemoryHierarchy &mem, int core,
                              WalkerStats &stats, int step,
                              AddrSpan addrs, Cycles now,
                              CycleLedger *ledger = nullptr,
                              bool traced = false);

/// @}

/**
 * Reusable probe-address buffers for one walk in flight. Owned by the
 * walker (serialized designs) or the walk machine (overlapped walks);
 * the planner and the hierarchy only ever see clear()+append views, so
 * after warm-up no translation grows a buffer. See DESIGN.md "Hot path
 * & memory layout".
 */
struct ProbeScratch
{
    std::vector<Addr> guest_slots; //!< Step-1 gECPT candidate slots
    std::vector<Addr> probes;      //!< current step's probe batch
    std::vector<Addr> background;  //!< CWC/STC refill traffic

    void
    clear()
    {
        guest_slots.clear();
        probes.clear();
        background.clear();
    }
};

} // namespace necpt

#endif // NECPT_WALK_PLAN_HH
