/**
 * @file
 * Per-walk cycle attribution: the allocation-free ledger every walk
 * carries, binning each simulated cycle of walk latency into a cause.
 *
 * The contract is *conservation*: for every finished walk the ledger's
 * bins sum exactly (integer equality) to the walk's end-to-start
 * latency. Walkers charge their analytic latency additions (cache
 * probes, hash units, TLB lookups) and the memory hierarchy decomposes
 * every access on a batch's critical line (wave issue, MSHR stalls,
 * cache service, DRAM queue/service/bus, injected fault spikes) so no
 * cycle is left uncounted. A forgotten charge is a test failure, not a
 * silent residual bin — see tests/test_attribution.cc.
 *
 * Ledgers are plain fixed arrays: charging is one predictable add, and
 * nothing here ever touches the heap (the steady-state translation
 * path stays allocation-free).
 */

#ifndef NECPT_COMMON_CYCLE_LEDGER_HH
#define NECPT_COMMON_CYCLE_LEDGER_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace necpt
{

/** Where a cycle of walk latency went (the attr.* taxonomy). */
enum class AttrCause : std::uint8_t
{
    Tlb = 0,     //!< POM-TLB / nested-TLB lookups on the walk path
    Probe,       //!< PWC/CWC/STC/walk-cache lookup latency
    Compute,     //!< hash units, VM-exit handling, step glue
    Issue,       //!< batch wave serialization (mmu_issue_width)
    Mshr,        //!< MSHR-full stalls on the batch's critical line
    Cache,       //!< L2/L3 service cycles on the critical line
    DramQueue,   //!< waiting behind a busy DRAM bank
    DramService, //!< row activate/precharge + column access
    DramBus,     //!< channel bus wait + data burst
    Fault,       //!< injected memory latency spikes
    Coalesce,    //!< waiting on a same-page walk already in flight
};

constexpr int num_attr_causes = 11;

/** Dotted-name component for one cause ("attr.<name>.…"). */
inline const char *
attrCauseName(AttrCause cause)
{
    switch (cause) {
      case AttrCause::Tlb: return "tlb";
      case AttrCause::Probe: return "probe";
      case AttrCause::Compute: return "compute";
      case AttrCause::Issue: return "issue";
      case AttrCause::Mshr: return "mshr";
      case AttrCause::Cache: return "cache";
      case AttrCause::DramQueue: return "dram_queue";
      case AttrCause::DramService: return "dram_service";
      case AttrCause::DramBus: return "dram_bus";
      case AttrCause::Fault: return "fault";
      case AttrCause::Coalesce: return "coalesce";
    }
    return "?";
}

/**
 * One walk's cycle bins. Owned by the walker (serialized designs) or
 * the walk machine (overlapped walks); reset at walk start, folded
 * into the walker's aggregate statistics at finishWalk().
 */
class CycleLedger
{
  public:
    void
    charge(AttrCause cause, Cycles cycles)
    {
        bins_[static_cast<int>(cause)] += cycles;
    }

    /** Fold another ledger in (nested walks: POM-TLB fallback). */
    void
    fold(const CycleLedger &other)
    {
        for (int c = 0; c < num_attr_causes; ++c)
            bins_[c] += other.bins_[c];
    }

    std::uint64_t
    bin(AttrCause cause) const
    {
        return bins_[static_cast<int>(cause)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t b : bins_)
            sum += b;
        return sum;
    }

    /** The dominant (largest) bin; Tlb when everything is zero. */
    AttrCause
    dominant() const
    {
        int best = 0;
        for (int c = 1; c < num_attr_causes; ++c) {
            if (bins_[c] > bins_[best])
                best = c;
        }
        return static_cast<AttrCause>(best);
    }

    void reset() { bins_.fill(0); }

    const std::array<std::uint64_t, num_attr_causes> &
    bins() const
    {
        return bins_;
    }

  private:
    std::array<std::uint64_t, num_attr_causes> bins_{};
};

} // namespace necpt

#endif // NECPT_COMMON_CYCLE_LEDGER_HH
