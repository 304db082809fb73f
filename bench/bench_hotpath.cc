/**
 * @file
 * Hot-path component micro-benchmarks (wall clock).
 *
 * Tight loops over the structures the per-access translation path is
 * made of — the packed set-associative cache (an L2 shape that fits a
 * host L2, and the 8-core L3, which does not), the elastic cuckoo
 * table's find and probe-address generation, and its one-pass d-way
 * hash (hashWays) — plus the machine-build step every run pays first, prefault
 * (host ns per prefaulted page), reported as operations per second and
 * nanoseconds per operation, and written to
 * BENCH_hotpath.json in the same shape bench_sim_throughput emits, so
 * tools/check_bench.py can diff either artifact against its committed
 * baseline. These are the structures the allocation-free-hot-path work
 * targets; a layout or inlining regression shows up here first, at
 * much finer grain than the end-to-end throughput bench.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "os/system.hh"
#include "pt/cuckoo.hh"
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
                      "  \"unit\": \"ops_per_sec\",\n  \"results\": [\n");
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
