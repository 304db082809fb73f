#include "walk/plan.hh"

#include <bit>
#include <optional>

namespace necpt
{

namespace
{

/**
 * Consult one CWC level for @p va.
 * @return the current descriptor on a CWC hit; nullopt on a miss (or
 *         when the level has no CWT at all). @p missed distinguishes a
 *         refillable miss from a structurally absent level.
 */
std::optional<CwtDescriptor>
consultLevel(const EcptPageTable &pt, CuckooWalkCache &cwc, Addr va,
             PageSize level, const PlanOptions &options, bool &missed)
{
    const CuckooWalkTable *cwt = pt.cwtOf(level);
    if (!cwt)
        return std::nullopt;

    const bool is_pte = level == PageSize::Page4K;
    const bool is_pmd = level == PageSize::Page2M;

    const bool cached = cwc.lookup(level, cwt->entryKey(va));
    if (options.adaptive && (is_pte || is_pmd))
        options.adaptive->record(options.now, level, cached);

    if (!cached) {
        missed = true;
        return std::nullopt;
    }
    // The CWC tracks which entries are resident; the OS keeps resident
    // entries coherent with CWT updates (it owns both), so a hit reads
    // the *current* descriptor rather than a stale snapshot.
    return cwt->query(va).value_or(CwtDescriptor{});
}

} // namespace

WalkKind
classifyPlan(const EcptProbePlan &plan, int ways)
{
    int probes = 0;
    for (unsigned m : plan.way_mask)
        probes += std::popcount(m);
    const int tables = plan.tablesProbed();
    if (probes <= 1)
        return WalkKind::Direct;
    if (tables == 1)
        return WalkKind::Size;
    if (tables == 2)
        return WalkKind::Partial;
    (void)ways;
    return WalkKind::Complete;
}

EcptProbePlan
planEcptWalk(const EcptPageTable &pt, CuckooWalkCache &cwc, Addr va,
             const PlanOptions &options)
{
    EcptProbePlan plan;
    const unsigned all = pt.allWays();
    const int pud = static_cast<int>(PageSize::Page1G);
    const int pmd = static_cast<int>(PageSize::Page2M);
    const int pte = static_cast<int>(PageSize::Page4K);

    // Default: everything unknown, probe all tables.
    plan.way_mask = {all, all, all};

    // What the consulted upper levels allow below them. Unknown means
    // unrestricted.
    bool may_2m = true;
    bool may_4k = true;

    // PUD level.
    const auto pud_desc = consultLevel(pt, cwc, va, PageSize::Page1G,
                                       options, plan.cwc_missed[pud]);
    if (pud_desc) {
        if (pud_desc->present) {
            plan.way_mask = {0, 0, 1u << pud_desc->way};
            plan.kind = classifyPlan(plan, pt.config().ways);
            return plan;
        }
        plan.way_mask[pud] = 0;
        if (pud_desc->hasSmaller()) {
            may_2m = pud_desc->smaller_2m;
            may_4k = pud_desc->smaller_4k;
        }
        // A descriptor with nothing mapped leaves the conservative
        // defaults (the walk will fault functionally; callers prevent
        // this by faulting pages in first).
    }

    // PMD level (skipped entirely when the PUD ruled out 2MB pages).
    if (may_2m) {
        const auto pmd_desc = consultLevel(
            pt, cwc, va, PageSize::Page2M, options,
            plan.cwc_missed[pmd]);
        if (pmd_desc) {
            if (pmd_desc->present) {
                // Mapped by a 2MB page: nothing above or below.
                plan.way_mask = {0, 1u << pmd_desc->way, 0};
                plan.kind = classifyPlan(plan, pt.config().ways);
                return plan;
            }
            plan.way_mask[pmd] = 0;
            if (pmd_desc->hasSmaller())
                may_4k = true;
        }
    } else {
        plan.way_mask[pmd] = 0;
    }

    // PTE level.
    if (!may_4k) {
        plan.way_mask[pte] = 0;
    } else if (options.use_pte_info && pt.hasPteCwt()) {
        const auto pte_desc = consultLevel(
            pt, cwc, va, PageSize::Page4K, options,
            plan.cwc_missed[pte]);
        if (pte_desc && pte_desc->present)
            plan.way_mask[pte] = 1u << pte_desc->way;
    }

    plan.kind = classifyPlan(plan, pt.config().ways);
    return plan;
}

std::size_t
appendPlannedProbes(const EcptPageTable &pt, Addr va,
                    const EcptProbePlan &plan, std::vector<Addr> &out)
{
    const std::size_t before = out.size();
    for (int s = 0; s < num_page_sizes; ++s) {
        if (plan.way_mask[s])
            pt.probeAddrs(va, all_page_sizes[s], plan.way_mask[s], out);
    }
    return out.size() - before;
}

void
chargeProbePhase(WalkerStats &stats, int step, const BatchResult &batch,
                 CycleLedger *ledger)
{
    stats.mmu_requests.inc(static_cast<std::uint64_t>(batch.requests));
    if (step >= 0) {
        stats.step_sum[step] +=
            static_cast<std::uint64_t>(batch.requests);
        stats.step_cnt[step] += 1;
        stats.step_lat[step] += batch.latency;
    }
    if (ledger)
        chargeMemBreakdown(*ledger, batch.bd);
}

BatchResult
executeProbePhase(MemoryHierarchy &mem, int core, WalkerStats &stats,
                  int step, AddrSpan addrs, Cycles now,
                  CycleLedger *ledger, bool traced)
{
    const BatchResult br = mem.batchAccess(addrs, now, core, traced);
    chargeProbePhase(stats, step, br, ledger);
    return br;
}

void
collectCwcRefills(const EcptPageTable &pt, CuckooWalkCache &cwc, Addr va,
                  const EcptProbePlan &plan, const PlanOptions &options,
                  std::vector<Addr> &fetch_addrs)
{
    for (int s = 0; s < num_page_sizes; ++s) {
        if (!plan.cwc_missed[s])
            continue;
        const auto level = all_page_sizes[s];
        if (level == PageSize::Page4K && !options.use_pte_info)
            continue;
        const CuckooWalkTable *cwt = pt.cwtOf(level);
        if (!cwt || !cwc.caches(level))
            continue;
        // Hardware fetches the (2-way) CWT entry...
        cwt->entryProbeAddrs(va, fetch_addrs);
        // ...and installs it. The CWC records residency; descriptor
        // bits are read through the coherent software CWT at use time.
        cwc.fill(level, cwt->entryKey(va));
    }
}

} // namespace necpt
