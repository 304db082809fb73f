/**
 * @file
 * Asynchronous memory-transaction types shared by the hierarchy and the
 * walk state machines.
 *
 * A transaction is one parallel group of MMU requests (a walk phase or
 * a background refill burst). The hierarchy schedules every member
 * access at issue time — the wave/MSHR/DRAM-bank math is deterministic
 * — and records the completion cycle on its completion heap; callers
 * either drain completions synchronously (the legacy batchAccess()
 * path) or let the event scheduler pump them at the right simulated
 * time, reading that heap through the CompletionSource interface,
 * which is what lets independent walks overlap and contend for MSHRs
 * and DRAM banks.
 *
 * Address groups cross the interface as AddrSpan views over
 * caller-owned scratch buffers, and completion callbacks are
 * non-owning FunctionRefs: the steady-state translation path issues
 * transactions without a single heap allocation. A callback's callee
 * must outlive the drain that fires it — walk machines and walkers
 * (the two issuers) both do.
 */

#ifndef NECPT_MEM_TXN_HH
#define NECPT_MEM_TXN_HH

#include <cstdint>
#include <span>

#include "common/function_ref.hh"
#include "common/types.hh"

namespace necpt
{

struct BatchResult;

/** Non-owning view of a parallel request group's byte addresses. */
using AddrSpan = std::span<const Addr>;

/**
 * Invoked exactly once when the transaction's slowest member returns.
 * @param batch  the per-batch outcome (size, misses, latency)
 * @param done   absolute completion cycle (issue + batch.latency)
 */
using TxnCallback = FunctionRef<void(const BatchResult &batch,
                                     Cycles done)>;

/**
 * Issued transactions not yet drained, as the event scheduler reads
 * them (MemoryHierarchy is the source; tests substitute fakes). The
 * earliest completion cycle is read in place, in O(1) and without
 * allocating, so the pending set is recorded once, by the source.
 */
class CompletionSource
{
  public:
    virtual ~CompletionSource() = default;

    /** Any transactions issued but not yet drained? */
    virtual bool hasPending() const = 0;

    /** Earliest completion cycle among pending transactions; only
     *  valid when hasPending(). */
    virtual Cycles nextCompletionCycle() const = 0;

    /** Fire (in completion order) every transaction that completes at
     *  or before @p upto — including ones its callbacks issue. */
    virtual void drainUntil(Cycles upto) = 0;
};

} // namespace necpt

#endif // NECPT_MEM_TXN_HH
