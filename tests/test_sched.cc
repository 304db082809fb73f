/**
 * @file
 * The event scheduler's commit order: closures by (cycle, priority,
 * sequence), and the pumps of its completion source at priority -1,
 * one per due cycle and numbered at commit.
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

/** Everything a test observes: handler runs in order, pump fires, and
 *  the dependency edges the scheduler reports. Also the scheduler's
 *  completion source: a min-heap of pending completion cycles. */
struct Recorder final : EventEdgeSink, CompletionSource
{
    struct Edge
    {
        std::uint64_t seq;
        std::uint64_t parent;
        double cycle;
        std::int64_t prio;
    };

    EventScheduler sched;
    std::vector<std::string> order;
    std::vector<std::uint64_t> running; //!< runningSeq() at each run
    std::vector<Edge> edges;
    std::vector<Cycles> pending;

    Recorder()
    {
        sched.setEdgeSink(this);
        sched.setCompletionSource(this);
    }

    /** A transaction completing at @p cycle. */
    void
    complete(Cycles cycle)
    {
        pending.push_back(cycle);
        std::push_heap(pending.begin(), pending.end(),
                       std::greater<Cycles>{});
    }

    void
    onEvent(std::uint64_t seq, std::uint64_t parent, double cycle,
            std::int64_t prio, std::uint8_t) override
    {
        edges.push_back({seq, parent, cycle, prio});
    }

    bool hasPending() const override { return !pending.empty(); }
    Cycles nextCompletionCycle() const override { return pending.front(); }

    void
    drainUntil(Cycles upto) override
    {
        order.push_back("pump@" + std::to_string(upto));
        running.push_back(sched.runningSeq());
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

    void
    operator()() const
    {
        rec->order.push_back(name);
        rec->running.push_back(rec->sched.runningSeq());
    }
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
    EXPECT_EQ(s.at(20.0, 0, Mark{&rec, "c20p0"}), 0u);
    EXPECT_EQ(s.at(10.0, 3, Mark{&rec, "c10p3"}), 1u);
    EXPECT_EQ(s.at(10.0, 1, Mark{&rec, "c10p1-first"}), 2u);
    EXPECT_EQ(s.at(10.0, -2, Mark{&rec, "c10p-2"}), 3u);
    EXPECT_EQ(s.at(10.0, 1, Mark{&rec, "c10p1-second"}), 4u);
    EXPECT_EQ(s.at(5.5, 7, Mark{&rec, "c5.5p7"}), 5u);
    rec.drain();

    const std::vector<std::string> want{
        "c5.5p7", "c10p-2", "c10p1-first", "c10p1-second", "c10p3",
        "c20p0"};
    EXPECT_EQ(rec.order, want);
    const std::vector<std::uint64_t> seqs{5, 3, 2, 4, 1, 0};
    EXPECT_EQ(rec.running, seqs);
    EXPECT_EQ(s.runningSeq(), EventScheduler::no_event);
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
    s.at(5.0, 0, Mark{&rec, "core0"}); // seq 0
    rec.complete(30);
    rec.complete(30);
    rec.complete(30);
    s.at(60.0, 1, Mark{&rec, "core1"}); // seq 1
    rec.drain();

    const std::vector<std::string> want{"core0", "pump@30", "core1"};
    EXPECT_EQ(rec.order, want);
    // The fire draws the next sequence number when it commits, and
    // reports itself to the edge sink then, with no parent.
    ASSERT_EQ(rec.running.size(), 3u);
    EXPECT_EQ(rec.running[1], 2u);
    ASSERT_EQ(rec.edges.size(), 3u);
    EXPECT_EQ(rec.edges[2].seq, 2u);
    EXPECT_EQ(rec.edges[2].parent, EventScheduler::no_event);
    EXPECT_DOUBLE_EQ(rec.edges[2].cycle, 30.0);
    EXPECT_EQ(rec.edges[2].prio, EventScheduler::pump_prio);
}

TEST(EventScheduler, PumpsOnlyWhatIsStillPending)
{
    // Completions drained ahead of their cycle leave nothing to pump:
    // no fire, no sequence number, no edge.
    Recorder rec;
    EventScheduler &s = rec.sched;
    EXPECT_TRUE(s.empty());
    rec.complete(30);
    rec.complete(40);
    EXPECT_FALSE(s.empty());
    s.at(10.0, 0, DrainAll{&rec}); // seq 0
    s.at(35.0, 0, Mark{&rec, "core0"}); // seq 1
    rec.drain();

    const std::vector<std::string> want{"drain-all", "core0"};
    EXPECT_EQ(rec.order, want);
    EXPECT_EQ(rec.edges.size(), 2u);
    EXPECT_TRUE(s.empty());
}

} // namespace necpt
