/**
 * @file
 * Heap-allocation assertions for the steady-state translation path.
 *
 * This binary replaces the global allocation functions with counting
 * wrappers and asserts that, once warmed, the structures on the
 * per-access path perform ZERO heap allocations:
 *
 *   - SetAssocCache access/fill/contains (packed arrays),
 *   - TlbHierarchy lookup/install/invalidateRange (the AssocCache
 *     probes and key-range shootdowns),
 *   - hashWays, the cuckoo tables' d-way hash pass (pure arithmetic),
 *   - cuckoo find + probeAddrs into a reused caller buffer,
 *   - MemoryHierarchy batchAccess/issueBatch/drain (pooled PendingTxns,
 *     scratch line buffers),
 *   - a full NestedEcptWalker::translate on resident pages (pooled walk
 *     machines, per-machine ProbeScratch, the host-translation memo of
 *     guest page-table pages, the residency check's translations), and
 *     the Nested Radix and Nested Hybrid walks (radix steps listed
 *     inline, in RadixSteps),
 *   - NestedSystem::ensureResident on resident pages under Nested Radix
 *     and Nested ECPTs (the per-access residency check),
 *   - EventScheduler at/runNext, and its pumps of a completion source
 *     (inline Handler storage, whose size and triviality sim/sched.hh
 *     also checks at compile time; the source's front read in place),
 *   - CoherenceController queue/beginRound/finishRound (the batcher's
 *     ring and its popped batch, the per-core drop counts and the
 *     directory's fixed ring are member storage).
 *
 * Each test warms the structure first — pools and scratch buffers are
 * allowed to grow to their high-water mark — then snapshots the global
 * counter around the measured loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "coherence/churn.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mmu/tlb.hh"
#include "pt/cuckoo.hh"
#include "sim/config.hh"
#include "sim/sched.hh"
#include "sim/simulator.hh"
#include "tests/test_util.hh"

namespace
{
std::atomic<std::uint64_t> g_news{0};
}

// Out of line: inlined into a delete site, std::free would meet a
// pointer from operator new and trip -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }
void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace necpt
{

namespace
{

/** Allocations performed by @p body (gtest machinery stays outside). */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&body)
{
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    body();
    return g_news.load(std::memory_order_relaxed) - before;
}

} // namespace

TEST(HotPathAlloc, SetAssocCacheSteadyStateIsAllocationFree)
{
    SetAssocCache cache(CacheConfig{"l2", 32 * 1024, 8, 16, 4});
    // Warm: stream enough lines through to exercise fills and
    // evictions in every set.
    for (Addr a = 0; a < 256 * 1024; a += 64)
        if (!cache.access(a, Requester::Core))
            cache.fill(a);

    const std::uint64_t allocs = allocationsDuring([&] {
        for (int round = 0; round < 4; ++round) {
            for (Addr a = 0; a < 256 * 1024; a += 64) {
                if (!cache.access(a, Requester::Mmu))
                    cache.fill(a);
                (void)cache.contains(a);
            }
        }
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, TlbLookupInstallAndShootdownAreAllocationFree)
{
    TlbHierarchy tlb;
    const Addr span = Addr{64} << 20;
    auto pass = [&] {
        for (Addr va = 0; va < span; va += 0x5000) {
            if (!tlb.lookup(va).hit) {
                const bool huge = (va >> 21) % 3 == 0;
                tlb.install(va, {va + 0x1'0000'0000,
                                 huge ? PageSize::Page2M : PageSize::Page4K,
                                 true});
            }
        }
        for (Addr va = 0; va < span; va += 0x20'0000) {
            tlb.invalidateRange(va + 0x3000, 0x1000);
            if ((va >> 21) % 4 == 0)
                tlb.invalidateRange(va, 0x20'0000);
        }
    };
    pass();
    const std::uint64_t allocs = allocationsDuring([&] {
        for (int round = 0; round < 4; ++round)
            pass();
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, HashAllIsAllocationFree)
{
    std::array<HashFunction, 3> ways;
    std::uint64_t sm = 0xF00D;
    for (HashFunction &fn : ways)
        fn = HashFunction(splitmix64(sm));
    std::uint64_t out[3];
    const std::uint64_t allocs = allocationsDuring([&] {
        std::uint64_t sink = 0;
        for (std::uint64_t key = 0; key < 100'000; ++key) {
            hashWays(ways.data(), 3, key, out);
            sink ^= out[0] ^ out[1] ^ out[2];
        }
        ASSERT_NE(sink, 0u);
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, CuckooFindAndProbeAddrsAreAllocationFree)
{
    BumpAllocator alloc;
    CuckooConfig cfg;
    cfg.ways = 3;
    cfg.initial_slots = 1024;
    cfg.slot_bytes = 64;
    ElasticCuckooTable<std::uint64_t> table(alloc, cfg);
    for (std::uint64_t k = 0; k < 400; ++k)
        table.insert(k, k);

    // The caller-owned probe buffer reaches capacity on the warm pass.
    std::vector<Addr> probes;
    const std::uint64_t all_ways = (1u << cfg.ways) - 1;
    probes.clear();
    table.probeAddrs(0, all_ways, probes);

    const std::uint64_t allocs = allocationsDuring([&] {
        for (int round = 0; round < 10; ++round) {
            for (std::uint64_t k = 0; k < 400; ++k) {
                ASSERT_TRUE(table.find(k));
                probes.clear();
                table.probeAddrs(k, all_ways, probes);
                ASSERT_FALSE(probes.empty());
            }
        }
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, HierarchySteadyStateIsAllocationFree)
{
    MemHierarchyConfig cfg;
    cfg.l1 = {"L1", 4096, 2, 2, 4};
    cfg.l2 = {"L2", 16384, 4, 16, 4};
    cfg.l3 = {"L3", 65536, 8, 56, 8};
    MemoryHierarchy mem(cfg, 1);

    std::vector<Addr> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(0x100000 + static_cast<Addr>(i) * 8192);

    BatchResult result{};
    Cycles done_at = 0;
    auto capture = [&](const BatchResult &b, Cycles at) {
        result = b;
        done_at = at;
    };

    // Warm both paths: cache fills, MSHR interval lists, the pending
    // transaction list, and the PendingTxn pool all reach capacity.
    Cycles now = 0;
    for (int round = 0; round < 4; ++round) {
        mem.batchAccess(batch, now, 0);
        mem.issueBatch(batch, now + 100, 0, capture);
        mem.drainAll();
        now += 10'000;
    }

    const std::uint64_t allocs = allocationsDuring([&] {
        for (int round = 0; round < 50; ++round) {
            const BatchResult sync = mem.batchAccess(batch, now, 0);
            ASSERT_GT(sync.requests, 0);
            mem.issueBatch(batch, now + 100, 0, capture);
            mem.drainAll();
            ASSERT_EQ(result.requests, sync.requests);
            ASSERT_GT(done_at, 0u);
            now += 10'000;
        }
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, EnsureResidentOnResidentPagesIsAllocationFree)
{
    for (const ConfigId id : {ConfigId::NestedRadix, ConfigId::NestedEcpt}) {
        NestedSystem sys(makeConfig(id).system);
        const std::uint64_t bytes = 64ULL << 20;
        const Addr base = sys.mmapRegion(bytes);
        std::vector<Addr> vas;
        for (Addr off = 0; off < bytes; off += 7 * 4096 + 64)
            vas.push_back(base + off);
        for (Addr va : vas)
            sys.ensureResident(va);

        const std::uint64_t allocs = allocationsDuring([&] {
            for (int round = 0; round < 4; ++round)
                for (Addr va : vas)
                    ASSERT_FALSE(sys.ensureResident(va));
        });
        EXPECT_EQ(allocs, 0u) << configName(id);
    }
}

namespace
{

/** Allocations of warmed translate() calls on resident pages under
 *  @p id: the per-access hot path an L2-TLB miss takes, with every
 *  step's memory traffic and background walk-cache refills. Each walk
 *  follows its access's residency check, as in the simulator's step. */
std::uint64_t
warmedWalkAllocations(ConfigId id)
{
    SimParams params;
    params.warmup_accesses = 500;
    params.measure_accesses = 2000;
    Simulator sim(makeConfig(id), params);
    // One full run builds the machine and warms every pool, cache,
    // scratch buffer, and the walkers' machine arenas.
    sim.run("GUPS");

    const Addr base = sim.system().mmapRegion(64 * 4096);
    std::vector<Addr> vas;
    for (int i = 0; i < 64; ++i)
        vas.push_back(base + static_cast<Addr>(i) * 4096);
    Cycles now = 1'000'000;
    for (Addr va : vas) { // warm pass: pools reach high-water mark
        sim.system().ensureResident(va);
        sim.walker(0).translate(va, now);
        now += 1000;
    }

    return allocationsDuring([&] {
        for (int round = 0; round < 10; ++round) {
            for (Addr va : vas) {
                EXPECT_FALSE(sim.system().ensureResident(va));
                const WalkResult w = sim.walker(0).translate(va, now);
                EXPECT_GT(w.latency, 0u);
                now += 1000;
            }
        }
    });
}

} // namespace

TEST(HotPathAlloc, NestedEcptWalkSteadyStateIsAllocationFree)
{
    EXPECT_EQ(warmedWalkAllocations(ConfigId::NestedEcpt), 0u);
}

/** Radix walks list their steps inline, never in a fresh vector. */
TEST(HotPathAlloc, RadixWalkSteadyStateIsAllocationFree)
{
    for (ConfigId id : {ConfigId::NestedRadix, ConfigId::NestedHybrid})
        EXPECT_EQ(warmedWalkAllocations(id), 0u) << configName(id);
}

/**
 * Shootdown rounds on a built 4-core Nested ECPTs THP machine: 4KB and
 * 2MB invalidations, with and without a host range, reach every core's
 * TLBs and walk caches. The queue runs deeper than a batch, so the
 * batcher's ring wraps, and the directory's ring wraps too.
 */
TEST(HotPathAlloc, CoherenceRoundSteadyStateIsAllocationFree)
{
    SimParams params;
    params.cores = 4;
    params.warmup_accesses = 500;
    params.measure_accesses = 2000;
    params.churn = parseChurnSpec("all,mode:sw");
    Simulator sim(makeConfig(ConfigId::NestedEcptThp), params);
    sim.run("GUPS");
    CoherenceController *coherence = sim.coherenceController();
    ASSERT_NE(coherence, nullptr);

    const Addr base = sim.system().mmapRegion(64ULL << 20);
    Cycles now = 1'000'000;
    std::uint64_t rounds = 0;
    auto pass = [&] {
        for (int i = 0; i < 40; ++i) {
            const Addr gva = base + static_cast<Addr>(i % 32) * (2ULL << 20);
            const bool huge = i % 3 == 0;
            coherence->queueInvalidation(
                {huge ? gva : gva + 0x5000, huge ? 2ULL << 20 : 0x1000,
                 i % 2 ? gva + 0x4000'0000 : invalid_addr,
                 i % 2 ? 0x1000ULL : 0, InvalKind::Remap});
        }
        while (coherence->pending()) {
            const auto round = coherence->beginRound(rounds % 4, now);
            ASSERT_TRUE(round.started);
            coherence->finishRound(round);
            ++rounds;
            now += 1000;
        }
        // The pass's first record dropped the 2MB page at base; past
        // the last region nothing was dropped.
        const std::uint64_t before = coherence->epoch() - 40;
        EXPECT_TRUE(coherence->invalidatedSince(base + 0x1234, before));
        EXPECT_FALSE(
            coherence->invalidatedSince(base + (64ULL << 20), before));
    };
    pass(); // warm: the batcher's ring and batch reach capacity
    const std::uint64_t warm_rounds = rounds;
    const std::uint64_t allocs = allocationsDuring([&] {
        for (int r = 0; r < 20; ++r)
            pass();
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(rounds, 21 * warm_rounds);
}

namespace
{

/** A core's rhythm on the scheduler: each step issues two memory
 *  transactions completing at the same cycle and re-arms itself, like
 *  the simulator's overlapped-walk loop. The rig is the scheduler's
 *  completion source, a min-heap of pending completion cycles. */
struct SchedRig final : CompletionSource
{
    EventScheduler sched;
    std::vector<Cycles> pending;
    std::uint64_t steps = 0;
    std::uint64_t pumps = 0;

    SchedRig() { sched.setCompletionSource(this); }

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
        ++pumps;
        while (!pending.empty() && pending.front() <= upto) {
            std::pop_heap(pending.begin(), pending.end(),
                          std::greater<Cycles>{});
            pending.pop_back();
        }
    }
};

struct RigStep
{
    SchedRig *rig;
    int core;
    double at;
    int left;

    void
    operator()() const
    {
        ++rig->steps;
        rig->complete(static_cast<Cycles>(at) + 3);
        rig->complete(static_cast<Cycles>(at) + 3);
        if (left > 0) {
            const double next = at + 1 + core;
            rig->sched.at(next, core, RigStep{rig, core, next, left - 1});
        }
    }
};

} // namespace

TEST(HotPathAlloc, EventSchedulerSteadyStateIsAllocationFree)
{
    SchedRig rig;
    auto round = [&rig](double base) {
        for (int core = 0; core < 4; ++core)
            rig.sched.at(base, core, RigStep{&rig, core, base, 100});
        while (!rig.sched.empty())
            rig.sched.runNext();
    };
    round(0.0); // warm: the event heap and the pending heap reach capacity

    const std::uint64_t warm_pumps = rig.pumps;
    const std::uint64_t allocs = allocationsDuring([&] {
        for (int r = 1; r <= 10; ++r)
            round(1e6 * r);
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(rig.steps, 11u * 4 * 101);
    // Each round pumps exactly as often as it did warming up.
    EXPECT_EQ(rig.pumps, 11 * warm_pumps);
    EXPECT_GT(warm_pumps, 0u);
}

} // namespace necpt
