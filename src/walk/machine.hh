/**
 * @file
 * Resumable walk state machines.
 *
 * A WalkMachine is one in-flight page walk: Walker::startWalk() builds
 * it, it issues asynchronous memory transactions through
 * MemoryHierarchy::issueBatch(), parks until they complete, and calls
 * finish() when the translation is known. The simulator keeps up to
 * SimParams::max_outstanding_walks machines live per core, which is
 * how independent walks overlap and contend for MSHRs and DRAM banks
 * over simulated time. A machine knows only its walk: what its owner
 * tracks about the walk in flight (the coherence epoch it issued
 * under, the event that issued it) lives in the owner's table of
 * in-flight walks (sim/coalescer.hh), and whether the walk is traced
 * is decided once at its start and kept by the machine.
 *
 * Machines are pooled: dropping a WalkMachinePtr calls release(),
 * which returns the machine to its walker's free list; the next
 * startWalk() reinit()s a recycled one instead of allocating. The
 * completion continuation is a non-owning FunctionRef — its callee
 * (typically the simulator's handler for the walk's table slot)
 * outlives every walk. A finished machine's result() carries the
 * walk's cycle ledger with its translation and latency, so whoever
 * retires the walk reads its attribution from the same place, however
 * long after the walker has moved on to other walks.
 *
 * Walkers that still compute synchronously (radix, hybrid, native
 * ECPT) are adapted by ImmediateWalkMachine: the walk runs to
 * completion at issue and the machine is born done — correct timing
 * for a lone walk, no intra-walk overlap modeled.
 */

#ifndef NECPT_WALK_MACHINE_HH
#define NECPT_WALK_MACHINE_HH

#include <utility>

#include "common/function_ref.hh"
#include "common/log.hh"
#include "walk/walker.hh"

namespace necpt
{

/** Completion continuation: non-owning, callee outlives the walk. */
using WalkDoneFn = FunctionRef<void(WalkMachine &)>;

/**
 * One resumable, in-flight page walk.
 */
class WalkMachine
{
  public:
    virtual ~WalkMachine() = default;

    WalkMachine(const WalkMachine &) = delete;
    WalkMachine &operator=(const WalkMachine &) = delete;

    Addr va() const { return va_; }
    Cycles startCycle() const { return start_; }
    bool done() const { return done_; }

    /** Completion cycle; only valid once done(). */
    Cycles
    endCycle() const
    {
        NECPT_ASSERT(done_);
        return end_;
    }

    /** The finished walk's outcome, its cycle ledger included; only
     *  valid once done(). */
    const WalkResult &
    result() const
    {
        NECPT_ASSERT(done_);
        return result_;
    }

    /**
     * Install the completion continuation. Fires exactly once — from
     * inside finish(), or immediately here if the machine is already
     * done (the ImmediateWalkMachine path). The callback must not
     * destroy the machine: completion is usually delivered from a
     * memory-transaction callback still executing machine code, so
     * owners defer destruction until after the drain returns.
     */
    void
    onDone(WalkDoneFn cb)
    {
        if (done_) {
            cb(*this);
            return;
        }
        on_done = cb;
    }

    /** Hand the machine back to its pool. The default is plain
     *  deletion; pooled subclasses push themselves on a free list. */
    virtual void release() { delete this; }

  protected:
    WalkMachine(Addr va, Cycles start) : va_(va), start_(start) {}

    /** Reset for reuse from a pool: a fresh walk of @p va at @p start. */
    void
    reinit(Addr va, Cycles start)
    {
        va_ = va;
        start_ = start;
        end_ = 0;
        done_ = false;
        result_ = WalkResult{};
        on_done = nullptr;
    }

    /** Mark the walk complete at @p end and deliver the continuation. */
    void
    finish(WalkResult result, Cycles end)
    {
        NECPT_ASSERT(!done_);
        result_ = std::move(result);
        end_ = end;
        done_ = true;
        if (on_done) {
            WalkDoneFn cb = on_done;
            on_done = nullptr;
            cb(*this);
        }
    }

  private:
    Addr va_;
    Cycles start_;
    Cycles end_ = 0;
    bool done_ = false;
    WalkResult result_;
    WalkDoneFn on_done;
};

inline void
WalkMachineReleaser::operator()(WalkMachine *machine) const
{
    if (machine)
        machine->release();
}

/**
 * Adapter for walkers whose translate() is synchronous: the result is
 * known at construction and the machine is born done. Pooled in the
 * owning Walker (the default startWalk() recycles released ones).
 */
class ImmediateWalkMachine : public WalkMachine
{
  public:
    ImmediateWalkMachine(Walker *walker, Addr va, Cycles start,
                         WalkResult result)
        : WalkMachine(va, start), owner(walker)
    {
        const Cycles end = start + result.latency;
        finish(std::move(result), end);
    }

    /** Reuse a pooled machine for a new already-computed walk. */
    void
    rebind(Addr va, Cycles start, WalkResult result)
    {
        reinit(va, start);
        const Cycles end = start + result.latency;
        finish(std::move(result), end);
    }

    void
    release() override
    {
        owner->imm_free.push_back(this);
    }

  private:
    Walker *owner;
};

} // namespace necpt

#endif // NECPT_WALK_MACHINE_HH
