/**
 * @file
 * Hot-path component micro-benchmarks (wall clock).
 *
 * Tight loops over the structures the per-access translation path is
 * made of — the packed set-associative cache (an L2 shape that fits a
 * host L2, and the 8-core L3, which does not), the elastic cuckoo
 * table's find and probe-address generation, and its one-pass d-way
 * hash (hashWays) — two layers of translation churn that the end-to-end
 * benchmark does not time on their own (a 2MB TLB shootdown's range
 * sweep, and functional lookups in a mostly 2MB-mapped ECPT), plus the
 * machine-build step every run pays first, prefault
 * (host ns per prefaulted page), reported as operations per second and
 * nanoseconds per operation, and written to BENCH_hotpath.json. These
 * are the structures the allocation-free-hot-path work targets; a
 * layout or inlining regression shows up here first, at much finer
 * grain than perfbench/, the end-to-end benchmark.
 *
 * The JSON also carries host_ref, the rate of a fixed integer-mixing
 * kernel that tracks raw host CPU speed. CI scales its floor on
 * perfbench's gups-ecpt-8c rate by it (.github/workflows/ci.yml,
 * "Repository benchmark smoke").
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mmu/tlb.hh"
#include "os/system.hh"
#include "pt/cuckoo.hh"
#include "pt/ecpt.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "tests/test_util.hh" // BumpAllocator backing the tables

using namespace necpt;

namespace
{

struct Sample
{
    std::string name;
    std::uint64_t ops;
    double seconds;
    double rate;
};

double
nsPerOp(const Sample &s)
{
    return s.rate > 0 ? 1e9 / s.rate : 0.0;
}

/** Time @p body (which performs @p ops operations) once. */
template <typename Fn>
Sample
measure(const std::string &name, std::uint64_t ops, Fn &&body)
{
    const auto begin = std::chrono::steady_clock::now();
    body();
    const auto end = std::chrono::steady_clock::now();
    Sample s;
    s.name = name;
    s.ops = ops;
    s.seconds = std::chrono::duration<double>(end - begin).count();
    s.rate = s.seconds > 0 ? static_cast<double>(ops) / s.seconds : 0.0;
    std::printf("%-28s %12llu ops  %8.3f s  %14.0f ops/s  %9.1f ns/op\n",
                name.c_str(), (unsigned long long)ops, s.seconds, s.rate,
                nsPerOp(s));
    return s;
}

volatile std::uint64_t g_sink = 0;

Sample
cacheAccess()
{
    // 512KB, 8-way: the L2 shape. Working set sized to hit ~always.
    SetAssocCache cache(CacheConfig{"l2", 512 * 1024, 8, 16, 4});
    const Addr span = 256 * 1024;
    for (Addr a = 0; a < span; a += 64)
        cache.fill(a);
    const std::uint64_t rounds = 400;
    const std::uint64_t ops = rounds * (span / 64);
    return measure("setassoc_access_hit", ops, [&] {
        std::uint64_t hits = 0;
        for (std::uint64_t r = 0; r < rounds; ++r)
            for (Addr a = 0; a < span; a += 64)
                hits += cache.access(a, Requester::Core);
        g_sink = hits;
    });
}

Sample
cacheFill()
{
    // Working set 4x the capacity: every access misses and fills,
    // exercising victim selection and the recency update.
    SetAssocCache cache(CacheConfig{"l2", 512 * 1024, 8, 16, 4});
    const Addr span = 2 * 1024 * 1024;
    const std::uint64_t rounds = 50;
    const std::uint64_t ops = rounds * (span / 64);
    return measure("setassoc_fill_evict", ops, [&] {
        std::uint64_t misses = 0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (Addr a = 0; a < span; a += 64) {
                if (!cache.access(a, Requester::Mmu)) {
                    cache.fill(a);
                    ++misses;
                }
            }
        }
        g_sink = misses;
    });
}

/** The 8-core machine's shared L3: 16MB, 16-way, 16384 sets. */
const CacheConfig l3_8core{"l3", 16 * 1024 * 1024, 16, 56, 20};

Sample
l3AccessHit()
{
    // Every line of a 16MB region is resident, one set's worth per
    // set, and lookups pick lines at random: each one reads a random
    // set of an array larger than a host L2, as walk probes do.
    SetAssocCache cache(l3_8core);
    const Addr span = l3_8core.size_bytes;
    for (Addr a = 0; a < span; a += 64)
        cache.fill(a);
    Rng rng(0x13);
    const std::uint64_t ops = 20'000'000;
    return measure("setassoc_l3_access_hit", ops, [&] {
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < ops; ++i)
            hits += cache.access(rng.below(span), Requester::Mmu);
        g_sink = hits;
    });
}

Sample
l3FillEvict()
{
    // Random lines of a 64GB range: nearly every lookup misses and
    // fills, choosing a victim in a random set.
    SetAssocCache cache(l3_8core);
    Rng rng(0x31);
    const Addr span = 64ULL << 30;
    const std::uint64_t ops = 10'000'000;
    return measure("setassoc_l3_fill_evict", ops, [&] {
        std::uint64_t misses = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr a = rng.below(span);
            if (!cache.access(a, Requester::Mmu)) {
                cache.fill(a);
                ++misses;
            }
        }
        g_sink = misses;
    });
}

Sample
cuckooFind()
{
    BumpAllocator alloc;
    CuckooConfig cfg;
    cfg.ways = 3;
    cfg.initial_slots = 16384;
    cfg.slot_bytes = 64;
    ElasticCuckooTable<std::uint64_t> table(alloc, cfg);
    const std::uint64_t keys = 8000;
    for (std::uint64_t k = 0; k < keys; ++k)
        table.insert(k, k);
    const std::uint64_t rounds = 300;
    return measure("cuckoo_find", rounds * keys, [&] {
        std::uint64_t found = 0;
        for (std::uint64_t r = 0; r < rounds; ++r)
            for (std::uint64_t k = 0; k < keys; ++k)
                found += static_cast<bool>(table.find(k));
        g_sink = found;
    });
}

Sample
cuckooProbeAddrs()
{
    BumpAllocator alloc;
    CuckooConfig cfg;
    cfg.ways = 3;
    cfg.initial_slots = 16384;
    cfg.slot_bytes = 64;
    ElasticCuckooTable<std::uint64_t> table(alloc, cfg);
    const std::uint64_t keys = 8000;
    for (std::uint64_t k = 0; k < keys; ++k)
        table.insert(k, k);
    std::vector<Addr> probes; // caller-owned scratch, reused
    const std::uint64_t rounds = 300;
    return measure("cuckoo_probe_addrs", rounds * keys, [&] {
        std::uint64_t total = 0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (std::uint64_t k = 0; k < keys; ++k) {
                probes.clear();
                table.probeAddrs(k, 0b111, probes);
                total += probes.size();
            }
        }
        g_sink = total;
    });
}

/** The cuckoo table's d-way hash pass over three seeded ways, seeded
 *  the way ElasticCuckooTable seeds its functions. */
Sample
hashWaysPass()
{
    std::array<HashFunction, 3> ways;
    std::uint64_t sm = 0xF00D;
    for (HashFunction &fn : ways)
        fn = HashFunction(splitmix64(sm));
    std::uint64_t out[3];
    const std::uint64_t keys = 4'000'000;
    return measure("hash_all_3way", keys, [&] {
        std::uint64_t acc = 0;
        for (std::uint64_t k = 0; k < keys; ++k) {
            hashWays(ways.data(), 3, k, out);
            acc ^= out[0] ^ out[1] ^ out[2];
        }
        g_sink = acc;
    });
}

/** 2MB shootdowns on full default TLBs: each range covers 512 keys of
 *  the 4KB arrays, more than they have sets, so it sweeps every tag
 *  row of the L1 (16 x 4) and L2 (85 x 12) 4KB TLBs. The ranges hold
 *  no entry, so the TLBs stay full. One op is one invalidateRange. */
Sample
tlbInvalidate2m()
{
    TlbHierarchy tlb;
    for (Addr i = 0; i < 4096; ++i) {
        tlb.install(i * 0x41000, {0x1'0000'0000 + i * 0x1000,
                                  PageSize::Page4K, true});
        tlb.install(i << 21, {0x2'0000'0000 + (i << 21), PageSize::Page2M,
                              true});
    }
    const std::uint64_t ops = 400'000;
    const Addr far = 1ULL << 40;
    return measure("tlb_invalidate_2m", ops, [&] {
        std::uint64_t dropped = 0;
        for (std::uint64_t i = 0; i < ops; ++i)
            dropped += tlb.invalidateRange(far + ((i % 4096) << 21),
                                           2ULL << 20);
        g_sink = dropped;
    });
}

/** Functional lookups in an ECPT mapped like a THP guest: 7 of every 8
 *  2MB regions by a 2MB page, the 8th by 4KB pages, and a few unmapped
 *  addresses past the mapped span. One op is one lookup. */
Sample
ecptLookupThp()
{
    BumpAllocator alloc;
    EcptPageTable pt(alloc, EcptConfig{});
    constexpr Addr mb2 = 2ULL << 20;
    const Addr base = 1ULL << 40;
    const std::uint64_t regions = 4096;
    for (std::uint64_t r = 0; r < regions; ++r) {
        const Addr va = base + r * mb2;
        if (r % 8 != 7) {
            pt.map(va, (1ULL << 36) + r * mb2, PageSize::Page2M);
            continue;
        }
        for (Addr off = 0; off < mb2; off += 4096)
            pt.map(va + off, (1ULL << 37) + r * mb2 + off, PageSize::Page4K);
    }
    Rng rng(0xEC97);
    std::vector<Addr> vas(1 << 16);
    for (Addr &va : vas)
        va = base + rng.below(regions * mb2 * 33 / 32);
    const std::uint64_t rounds = 60;
    return measure("ecpt_lookup_thp", rounds * vas.size(), [&] {
        std::uint64_t mapped = 0;
        for (std::uint64_t r = 0; r < rounds; ++r)
            for (const Addr va : vas)
                mapped += pt.lookup(va).valid;
        g_sink = mapped;
    });
}

/**
 * Deterministic host-speed reference: fixed-work serial integer
 * mixing (SplitMix64 finalizer), no memory traffic, so the rate
 * tracks raw host CPU speed and nothing about the simulator. CI
 * scales an absolute rate floor by this rate over the reference
 * host's, so a slow dev laptop isn't failed for not being the CI
 * runner.
 */
double
hostReferenceRate()
{
    constexpr std::uint64_t iters = std::uint64_t(1) << 26;
    double best = 0.0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    // Best-of-3: the max filters scheduler preemption out of the
    // calibration the same way it distorts the measured rows least.
    for (int rep = 0; rep < 3; ++rep) {
        const auto begin = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < iters; ++i) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            x ^= z >> 31; // serial dependence: keeps the loop scalar
        }
        const auto end = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(end - begin).count();
        if (s > 0)
            best = best > iters / s ? best : iters / s;
    }
    // The checksum escaping here is what stops the compiler from
    // folding the whole loop away.
    std::printf("%-28s %12.0f mixes/s  (checksum %016llx)\n",
                "host reference kernel", best, (unsigned long long)x);
    return best;
}

/** prefaultAll of one 1GB VMA into a fresh machine of configuration
 *  @p id: 262144 4KB pages, enough to push the PTE-ECPTs through an
 *  elastic resize. One op is one prefaulted page. */
Sample
prefault(const std::string &name, ConfigId id)
{
    NestedSystem sys(makeConfig(id).system);
    const std::uint64_t bytes = 1ULL << 30;
    sys.mmapRegion(bytes);
    return measure(name, bytes / pageBytes(PageSize::Page4K),
                   [&] { sys.prefaultAll(); });
}

} // namespace

int
main()
{
    const double host_ref = hostReferenceRate();
    printBanner("Hot-path component throughput (wall clock)",
                "engineering harness; not a paper figure");

    std::vector<Sample> samples;
    samples.push_back(cacheAccess());
    samples.push_back(cacheFill());
    samples.push_back(l3AccessHit());
    samples.push_back(l3FillEvict());
    samples.push_back(cuckooFind());
    samples.push_back(cuckooProbeAddrs());
    samples.push_back(hashWaysPass());
    samples.push_back(tlbInvalidate2m());
    samples.push_back(ecptLookupThp());
    samples.push_back(
        prefault("prefault_nested_ecpt_4k", ConfigId::NestedEcpt));
    samples.push_back(
        prefault("prefault_nested_radix", ConfigId::NestedRadix));

    const char *path = "BENCH_hotpath.json";
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"hotpath\",\n"
                      "  \"unit\": \"ops_per_sec\",\n"
                      "  \"host_ref\": %.1f,\n"
                      "  \"results\": [\n",
                 host_ref);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"ops\": %llu, "
                     "\"seconds\": %.6f, \"ops_per_sec\": %.1f, "
                     "\"ns_per_op\": %.2f}%s\n",
                     s.name.c_str(), (unsigned long long)s.ops, s.seconds,
                     s.rate, nsPerOp(s), i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote %s\n", path);
    return 0;
}
