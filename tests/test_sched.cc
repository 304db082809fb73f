/**
 * @file
 * The event scheduler's commit order: closures by (cycle, priority,
 * sequence), and the memory-pump calendar at priority -1, whose
 * same-cycle entries collapse into one fire numbered at commit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/sched.hh"

namespace necpt
{

namespace
{

/** Everything a test observes: handler runs in order, pump fires, and
 *  the dependency edges the scheduler reports. */
struct Recorder final : EventEdgeSink
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

    Recorder()
    {
        sched.setEdgeSink(this);
        sched.setPumpSink(
            EventScheduler::PumpSink::bind<&Recorder::onPump>(this));
    }

    void
    onEvent(std::uint64_t seq, std::uint64_t parent, double cycle,
            std::int64_t prio, std::uint8_t) override
    {
        edges.push_back({seq, parent, cycle, prio});
    }

    void
    onPump(double cycle)
    {
        order.push_back("pump@" + std::to_string(static_cast<int>(cycle)));
        running.push_back(sched.runningSeq());
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
    EXPECT_DOUBLE_EQ(s.nextCycle(), 5.5);
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
    // Arming order must not matter: the calendar's priority -1 decides.
    Recorder rec;
    EventScheduler &s = rec.sched;
    s.at(50.0, std::numeric_limits<std::int64_t>::max(),
         Mark{&rec, "sample"});
    s.at(50.0, 0, Mark{&rec, "core0"});
    s.armPump(50.0);
    s.at(50.0, -2, Mark{&rec, "round"});
    s.armPump(40.0);
    EXPECT_DOUBLE_EQ(s.nextCycle(), 40.0);
    rec.drain();

    const std::vector<std::string> want{"pump@40", "round", "pump@50",
                                        "core0", "sample"};
    EXPECT_EQ(rec.order, want);
}

TEST(EventScheduler, SameCyclePumpsFireOnceUnderOneSequence)
{
    Recorder rec;
    EventScheduler &s = rec.sched;
    s.at(5.0, 0, Mark{&rec, "core0"}); // seq 0
    s.armPump(30.0);
    s.armPump(30.0);
    s.armPump(30.0);
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

} // namespace necpt
