/**
 * @file
 * Nested ECPT walker — the paper's contribution (Sections 3-5).
 *
 * A nested ECPT walk has three sequential phases (Figure 6):
 *   Step 1: probe hECPTs to locate the gECPT entry candidates,
 *   Step 2: fetch the gECPT candidates at their host addresses,
 *   Step 3: probe hECPTs to translate the data page's gPA.
 *
 * The walker implements both the *Plain* design (direct port of native
 * ECPTs) and the *Advanced* design via feature flags so the Figure-9
 * technique breakdown can be regenerated:
 *   - stc: Shortcut Translation Cache for gCWT refills (Section 4.1)
 *   - step1_pte_hcwt: PTE hCWT caching for Step 1 (Section 4.2)
 *   - step3_adaptive_pte: adaptive PTE hCWT caching for Step 3
 *     (Section 4.2, Figure 12)
 *   - pt_4kb: leverage 4KB page-table allocation (Section 4.3)
 *
 * Neither design caches hPTE->gPTE pointers, since cuckoo rehashing and
 * elastic resizing move gPTEs (Section 4.4).
 *
 * The functional answers a walk needs besides its probe addresses come
 * from NestedSystem's host bookkeeping, not from a simulated structure
 * (DESIGN.md, "Functional translations once per access"): Step 2 and
 * the gCWT refill translate slot gPAs through hostTranslatePt(), a memo
 * of page-table pages' host translations; Step 3's gPA and the walk's
 * result reuse the translations the access's residency check found,
 * while remapCount() says nothing was unmapped or remapped since.
 */

#ifndef NECPT_WALK_NESTED_ECPT_HH
#define NECPT_WALK_NESTED_ECPT_HH

#include "mmu/cwc.hh"
#include "mmu/walk_caches.hh"
#include "walk/plan.hh"
#include "walk/walker.hh"

namespace necpt
{

/** Advanced-design technique toggles (all false = Plain design). */
struct NestedEcptFeatures
{
    bool stc = true;
    bool step1_pte_hcwt = true;
    bool step3_adaptive_pte = true;
    bool pt_4kb = true;
    /** STC capacity (Table 2: 10; Section 9.4 sweeps 4/8/10). */
    std::size_t stc_entries = 10;

    static NestedEcptFeatures
    plain()
    {
        return {false, false, false, false, 10};
    }

    static NestedEcptFeatures
    advanced()
    {
        return {true, true, true, true, 10};
    }
};

/**
 * Walker for the "Nested ECPTs" configurations of Table 1.
 */
class NestedEcptWalker : public Walker
{
  public:
    NestedEcptWalker(NestedSystem &system, MemoryHierarchy &memory,
                     int core_id,
                     const NestedEcptFeatures &features =
                         NestedEcptFeatures::advanced());

    ~NestedEcptWalker() override;

    WalkResult translate(Addr gva, Cycles now) override;

    /**
     * Resumable walk: Steps 1-3 are states issuing asynchronous probe
     * transactions and parking until they complete, so independent
     * walks can overlap. translate() is this plus an immediate drain.
     * Machines come from a per-walker pool: after warm-up no walk
     * allocates.
     */
    WalkMachinePtr startWalk(Addr gva, Cycles now) override;

    std::string name() const override
    {
        return plainDesign() ? "PlainNestedECPT" : "NestedECPT";
    }

    const char *metricsSlug() const override { return "nested_ecpt"; }

    void registerMetrics(MetricsRegistry &reg,
                         const std::string &prefix) override;

    void
    resetStats() override
    {
        Walker::resetStats();
        gcwc.resetStats();
        hcwc_step1.resetStats();
        hcwc_step3.resetStats();
        stc.resetStats();
    }

    bool
    plainDesign() const
    {
        return !feat.stc && !feat.step1_pte_hcwt
            && !feat.step3_adaptive_pte && !feat.pt_4kb;
    }

    /// @name Introspection for tests and Section 9.4 benches
    /// @{
    const ShortcutTranslationCache &shortcutCache() const { return stc; }
    const CuckooWalkCache &guestCwc() const { return gcwc; }
    const CuckooWalkCache &hostCwcStep1() const { return hcwc_step1; }
    const CuckooWalkCache &hostCwcStep3() const { return hcwc_step3; }
    const AdaptiveCwcController &adaptiveController() const
    {
        return adaptive;
    }
    const NestedEcptFeatures &features() const { return feat; }
    /// @}

    std::size_t
    invalidateTranslationCaches(Addr gva, std::uint64_t bytes, Addr gpa,
                                std::uint64_t gpa_bytes) override
    {
        std::size_t n = gcwc.invalidateRange(gva, bytes);
        if (gpa_bytes > 0) {
            n += hcwc_step1.invalidateRange(gpa, gpa_bytes);
            n += hcwc_step3.invalidateRange(gpa, gpa_bytes);
            n += stc.invalidateRange(gpa, gpa_bytes);
        }
        return n;
    }

  private:
    /** The resumable three-step walk (defined in nested_ecpt.cc). */
    class Machine;

    /**
     * Plan the host-side translation of @p gpa for Step 1 (locating a
     * gECPT slot — always a 4KB-backed page-table page).
     */
    EcptProbePlan planStep1Host(Addr gpa, Cycles t);

    /**
     * Handle gCWC refills: translate the gCWT entry addresses (via the
     * STC in the Advanced design, via full host probe traffic in the
     * Plain design) and append the fetch traffic to @p background.
     * A @p traced walk records its STC hits and misses.
     */
    void refillGuestCwc(Addr gva, const EcptProbePlan &gplan, Cycles t,
                        std::vector<Addr> &background, bool traced);

    /** Per-level CWC hit/miss instants for a traced walk's plan. */
    void tracePlan(const char *cache, const CuckooWalkCache &cwc,
                   const EcptProbePlan &plan, Cycles t);

    /** Per-way probe-issue instants for one step's probe group. */
    void traceProbes(int step, AddrSpan addrs, Cycles t);

    /** Completion callee for deferred background refill transactions
     *  (the txn outlives its machine; the callee is the walker). */
    void noteBackground(const BatchResult &batch, Cycles done);

    NestedEcptFeatures feat;
    CuckooWalkCache gcwc;
    CuckooWalkCache hcwc_step1;
    CuckooWalkCache hcwc_step3;
    ShortcutTranslationCache stc;
    AdaptiveCwcController adaptive;

    /** gCWT entry-probe scratch for refillGuestCwc (never recursive). */
    std::vector<Addr> gcwt_scratch;

    /** Arena deleter, out of line (nested_ecpt.cc, after Machine's
     *  definition): Machine is incomplete at this point. */
    struct MachineDeleter
    {
        void operator()(Machine *machine) const;
    };

    /** Machine pool: released walks go on the free list; startWalk
     *  rebinds a recycled machine (probe-buffer capacity retained). */
    std::vector<std::unique_ptr<Machine, MachineDeleter>> machine_arena;
    std::vector<Machine *> machine_free;
};

} // namespace necpt

#endif // NECPT_WALK_NESTED_ECPT_HH
