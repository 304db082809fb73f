/**
 * @file
 * The event scheduler's commit order: closures by (cycle, priority,
 * sequence), and the pumps of its completion source at priority -1,
 * one per due cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/sched.hh"

namespace necpt
{

namespace
{

/** Everything a test observes: handler runs and pump fires, in
 *  order. Also the scheduler's completion source: a min-heap of
 *  pending completion cycles. */
struct Recorder final : CompletionSource
{
    EventScheduler sched;
    std::vector<std::string> order;
    std::vector<Cycles> pending;

    Recorder() { sched.setCompletionSource(this); }

    /** A transaction completing at @p cycle. */
    void
    complete(Cycles cycle)
    {
        pending.push_back(cycle);
        std::push_heap(pending.begin(), pending.end(),
                       std::greater<Cycles>{});
    }

    bool hasPending() const override { return !pending.empty(); }
    Cycles nextCompletionCycle() const override { return pending.front(); }

    void
    drainUntil(Cycles upto) override
    {
        order.push_back("pump@" + std::to_string(upto));
        while (!pending.empty() && pending.front() <= upto) {
            std::pop_heap(pending.begin(), pending.end(),
                          std::greater<Cycles>{});
            pending.pop_back();
        }
    }

    void
    drain()
    {
        while (!sched.empty())
            sched.runNext();
    }
};

struct Mark
{
    Recorder *rec;
    const char *name;

    void operator()() const { rec->order.push_back(name); }
};

/** A closure that completes every pending transaction ahead of its
 *  cycle, as a synchronous drainAll() does. */
struct DrainAll
{
    Recorder *rec;

    void
    operator()() const
    {
        rec->order.push_back("drain-all");
        rec->pending.clear();
    }
};

} // namespace

TEST(EventScheduler, OrdersByCycleThenPriorityThenSequence)
{
    Recorder rec;
    EventScheduler &s = rec.sched;
    s.at(20.0, 0, Mark{&rec, "c20p0"});
    s.at(10.0, 3, Mark{&rec, "c10p3"});
    s.at(10.0, 1, Mark{&rec, "c10p1-first"});
    s.at(10.0, -2, Mark{&rec, "c10p-2"});
    s.at(10.0, 1, Mark{&rec, "c10p1-second"});
    s.at(5.5, 7, Mark{&rec, "c5.5p7"});
    rec.drain();

    const std::vector<std::string> want{
        "c5.5p7", "c10p-2", "c10p1-first", "c10p1-second", "c10p3",
        "c20p0"};
    EXPECT_EQ(rec.order, want);
}

TEST(EventScheduler, PumpRunsAfterCoherenceAndBeforeCoresAtSameCycle)
{
    // Issue order must not matter: the pumps' priority -1 decides.
    Recorder rec;
    EventScheduler &s = rec.sched;
    s.at(50.0, std::numeric_limits<std::int64_t>::max(),
         Mark{&rec, "sample"});
    s.at(50.0, 0, Mark{&rec, "core0"});
    rec.complete(50);
    s.at(50.0, -2, Mark{&rec, "round"});
    rec.complete(40);
    rec.drain();

    const std::vector<std::string> want{"pump@40", "round", "pump@50",
                                        "core0", "sample"};
    EXPECT_EQ(rec.order, want);
    EXPECT_TRUE(rec.pending.empty());
}

TEST(EventScheduler, SameCyclePumpsFireOnceUnderOneSequence)
{
    Recorder rec;
    EventScheduler &s = rec.sched;
    s.at(5.0, 0, Mark{&rec, "core0"});
    rec.complete(30);
    rec.complete(30);
    rec.complete(30);
    s.at(60.0, 1, Mark{&rec, "core1"});
    rec.drain();

    const std::vector<std::string> want{"core0", "pump@30", "core1"};
    EXPECT_EQ(rec.order, want);
}

TEST(EventScheduler, PumpsOnlyWhatIsStillPending)
{
    // Completions drained ahead of their cycle leave nothing to pump.
    Recorder rec;
    EventScheduler &s = rec.sched;
    EXPECT_TRUE(s.empty());
    rec.complete(30);
    rec.complete(40);
    EXPECT_FALSE(s.empty());
    s.at(10.0, 0, DrainAll{&rec});
    s.at(35.0, 0, Mark{&rec, "core0"});
    rec.drain();

    const std::vector<std::string> want{"drain-all", "core0"};
    EXPECT_EQ(rec.order, want);
    EXPECT_TRUE(s.empty());
}

} // namespace necpt
