/** @file Unit tests for the memory hierarchy facade. */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace necpt
{

namespace
{
MemHierarchyConfig
tinyConfig()
{
    MemHierarchyConfig cfg;
    cfg.l1 = {"L1", 4096, 2, 2, 4};
    cfg.l2 = {"L2", 16384, 4, 16, 4};
    cfg.l3 = {"L3", 65536, 8, 56, 8};
    return cfg;
}
} // namespace

TEST(Hierarchy, ColdMissGoesToDram)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    const auto r = mem.access(0x1000, 0, Requester::Core, 0);
    EXPECT_EQ(r.level, MemLevel::Dram);
    EXPECT_GT(r.latency, 56u);
}

TEST(Hierarchy, FillsAllLevelsForCore)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    mem.access(0x1000, 0, Requester::Core, 0);
    const auto r = mem.access(0x1000, 100, Requester::Core, 0);
    EXPECT_EQ(r.level, MemLevel::L1);
    EXPECT_EQ(r.latency, 2u);
}

TEST(Hierarchy, MmuEntersAtL2AndSkipsL1)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    mem.access(0x2000, 0, Requester::Mmu, 0);
    // MMU fill landed in L2/L3 but not L1.
    EXPECT_FALSE(mem.l1(0).contains(0x2000));
    EXPECT_TRUE(mem.l2(0).contains(0x2000));
    EXPECT_TRUE(mem.l3().contains(0x2000));
    const auto r = mem.access(0x2000, 100, Requester::Mmu, 0);
    EXPECT_EQ(r.level, MemLevel::L2);
    EXPECT_EQ(r.latency, 16u);
}

TEST(Hierarchy, MmuFillsPolluteCoreCapacity)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    // Core warms a line, then the MMU streams through L2.
    mem.access(0x0, 0, Requester::Core, 0);
    for (Addr a = 0x100000; a < 0x100000 + 64 * 1024; a += 64)
        mem.access(a, 0, Requester::Mmu, 0);
    // L2/L3 capacity was consumed by walker traffic.
    EXPECT_FALSE(mem.l2(0).contains(0x0));
}

TEST(Hierarchy, BatchDeduplicatesLines)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    const std::vector<Addr> addrs = {0x1000, 0x1008, 0x1010, 0x2000};
    const BatchResult r = mem.batchAccess(addrs, 0, 0);
    EXPECT_EQ(r.requests, 2); // 0x1000-line + 0x2000-line
}

TEST(Hierarchy, BatchLatencyIsMaxNotSum)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    // Warm two lines into L2.
    mem.access(0x1000, 0, Requester::Mmu, 0);
    mem.access(0x5000, 0, Requester::Mmu, 0);
    const BatchResult warm = mem.batchAccess({0x1000, 0x5000}, 100, 0);
    // Both are L2 hits issued in one wave: ~16 cycles, not ~32.
    EXPECT_LE(warm.latency, 20u);
    EXPECT_EQ(warm.l2_misses, 0);
}

TEST(Hierarchy, WideColdBatchSlowerThanNarrow)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    std::vector<Addr> narrow, wide;
    for (int i = 0; i < 2; ++i)
        narrow.push_back(0x800000 + static_cast<Addr>(i) * 8192);
    for (int i = 0; i < 27; ++i)
        wide.push_back(0xA00000 + static_cast<Addr>(i) * 8192);
    const auto nr = mem.batchAccess(narrow, 0, 0);
    const auto wr = mem.batchAccess(wide, 100000, 0);
    // A 27-line cold batch exceeds MSHRs/banks and pays for it.
    EXPECT_GT(wr.latency, nr.latency);
    EXPECT_EQ(wr.requests, 27);
}

TEST(Hierarchy, MshrOccupancyTracked)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(0x300000 + static_cast<Addr>(i) * 8192);
    mem.batchAccess(addrs, 0, 0);
    EXPECT_GT(mem.avgMshrsInUse(), 0.0);
    EXPECT_LE(mem.maxMshrsInUse(), 4u); // tiny config: 4 L2 MSHRs
    mem.resetStats();
    EXPECT_DOUBLE_EQ(mem.avgMshrsInUse(), 0.0);
}

/** Pin the time-weighted MSHR accounting on a hand-built pattern.
 *
 *  Two-core machine; core 1's walker warms eight distinct lines into
 *  the shared L3 (and its own L2). Core 0 then batches all eight:
 *  every access misses its private L2 and hits L3 at exactly 56
 *  cycles, so the wave math is fully deterministic. With issue width
 *  4 and 4 MSHRs:
 *    wave 0 (i=0..3):   issue 0, done 56 each — MSHRs full.
 *    i=4: issue slot 1, stalls until 56, done 112.
 *    i=5..7: issue slot 1 (MSHRs freed in i=4's wait), done 57.
 *  busy = 4*56 + 56 + 3*56 = 448 miss-cycles over window [0, 112],
 *  so the time-weighted occupancy is exactly 4.0. */
TEST(Hierarchy, MshrTimeWeightedOccupancyPinned)
{
    MemoryHierarchy mem(tinyConfig(), 2);
    std::vector<Addr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(0x300000 + static_cast<Addr>(i) * 8192);
    for (Addr a : addrs)
        mem.access(a, 0, Requester::Mmu, 1);
    mem.resetStats();

    const BatchResult r = mem.batchAccess(addrs, 0, 0);
    EXPECT_EQ(r.requests, 8);
    EXPECT_EQ(r.l2_misses, 8);
    EXPECT_EQ(r.l3_misses, 0);
    EXPECT_EQ(r.latency, 112u);
    EXPECT_EQ(mem.mshrBusyCycles(), 448u);
    EXPECT_DOUBLE_EQ(mem.avgMshrsInUse(), 4.0);
    EXPECT_EQ(mem.maxMshrsInUse(), 4u);
}

/** A transaction issued while another is in flight on the same core
 *  queues behind the MSHRs the earlier one still holds. */
TEST(Hierarchy, OverlappingTxnsContendForMshrs)
{
    std::vector<Addr> first, second;
    for (int i = 0; i < 4; ++i)
        first.push_back(0x400000 + static_cast<Addr>(i) * 8192);
    second.push_back(0x600000);

    // Overlapped: issue the second while the first's four cold misses
    // still hold every MSHR.
    MemoryHierarchy overlapped(tinyConfig(), 1);
    Cycles olat = 0;
    auto capture = [&olat](const BatchResult &b, Cycles) {
        olat = b.latency;
    };
    overlapped.issueBatch(first, 0, 0);
    overlapped.issueBatch(second, 0, 0, capture);
    overlapped.drainAll();

    // Quiesced: same accesses in the same order, but drained between
    // (cache and DRAM state evolve identically — timing is charged at
    // issue — so the only difference is the MSHR seed).
    MemoryHierarchy quiesced(tinyConfig(), 1);
    quiesced.issueBatch(first, 0, 0);
    quiesced.drainAll();
    const BatchResult q = quiesced.batchAccess(second, 0, 0);

    EXPECT_GT(olat, q.latency);
}

/** DRAM bank busy-intervals persist across transactions: a line in a
 *  bank another in-flight transaction is using waits for the bank. */
TEST(Hierarchy, OverlappingTxnsSerializeOnDramBanks)
{
    // Same 8KB row => same bank; different cache lines two lines
    // apart so both map to channel 0 (lines interleave channels).
    const std::vector<Addr> first = {0x800000};
    const std::vector<Addr> second = {0x800080};

    MemoryHierarchy overlapped(tinyConfig(), 1);
    Cycles olat = 0;
    auto capture = [&olat](const BatchResult &b, Cycles) {
        olat = b.latency;
    };
    overlapped.issueBatch(first, 0, 0);
    overlapped.issueBatch(second, 0, 0, capture);
    overlapped.drainAll();

    // Alone on a fresh hierarchy the second line opens the row itself;
    // behind the first it queues on the bank (then row-hits).
    MemoryHierarchy fresh(tinyConfig(), 1);
    const BatchResult alone = fresh.batchAccess(second, 0, 0);
    EXPECT_GT(olat, alone.latency);
}

/** The synchronous wrapper and the async path are the same machine:
 *  issueBatch + drainAll delivers byte-for-byte the BatchResult that
 *  batchAccess returns, completing at issue + latency. */
TEST(Hierarchy, SyncWrapperMatchesAsyncPath)
{
    std::vector<Addr> addrs;
    for (int i = 0; i < 6; ++i)
        addrs.push_back(0x900000 + static_cast<Addr>(i) * 8192);

    MemoryHierarchy sync_mem(tinyConfig(), 1);
    const BatchResult s = sync_mem.batchAccess(addrs, 42, 0);

    MemoryHierarchy async_mem(tinyConfig(), 1);
    BatchResult a;
    Cycles done = 0;
    bool fired = false;
    auto capture = [&](const BatchResult &b, Cycles at) {
        a = b;
        done = at;
        fired = true;
    };
    async_mem.issueBatch(addrs, 42, 0, capture);
    EXPECT_TRUE(async_mem.hasPending());
    async_mem.drainAll();
    EXPECT_TRUE(fired);
    EXPECT_FALSE(async_mem.hasPending());

    EXPECT_EQ(a.latency, s.latency);
    EXPECT_EQ(a.requests, s.requests);
    EXPECT_EQ(a.l2_misses, s.l2_misses);
    EXPECT_EQ(a.l3_misses, s.l3_misses);
    EXPECT_EQ(done, 42u + s.latency);
}

/** drainUntil fires completions in (cycle, issue) order and leaves later
 *  transactions pending. */
TEST(Hierarchy, DrainUntilOrdersCompletions)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    std::vector<int> order;
    // Warm a line so the second txn is a fast L2 hit; the first goes
    // to DRAM and completes later despite the earlier issue.
    mem.access(0xA00000, 0, Requester::Mmu, 0);
    auto mark1 = [&order](const BatchResult &, Cycles) {
        order.push_back(1);
    };
    auto mark2 = [&order](const BatchResult &, Cycles) {
        order.push_back(2);
    };
    mem.issueBatch({0xB00000}, 0, 0, mark1);
    mem.issueBatch({0xA00000}, 0, 0, mark2);
    mem.drainUntil(20); // only the L2 hit (16 cycles) is due
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 2);
    EXPECT_TRUE(mem.hasPending());
    mem.drainAll();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[1], 1);
}

TEST(Hierarchy, PerCoreL1L2SharedL3)
{
    MemoryHierarchy mem(tinyConfig(), 2);
    mem.access(0x4000, 0, Requester::Core, 0);
    // Core 1 misses its private L1/L2 but hits the shared L3.
    const auto r = mem.access(0x4000, 100, Requester::Core, 1);
    EXPECT_EQ(r.level, MemLevel::L3);
}

TEST(Hierarchy, StatsPerRequester)
{
    MemoryHierarchy mem(tinyConfig(), 1);
    mem.access(0x0, 0, Requester::Core, 0);
    mem.access(0x40, 0, Requester::Mmu, 0);
    EXPECT_EQ(mem.l2(0).stats(Requester::Core).accesses(), 1u);
    EXPECT_EQ(mem.l2(0).stats(Requester::Mmu).accesses(), 1u);
}

} // namespace necpt
