#include "mmu/pom_tlb.hh"

#include "common/log.hh"

namespace necpt
{

namespace
{
constexpr std::uint64_t entry_bytes = 16; //!< tag + translation
}

PomTlb::PomTlb(RegionAllocator &allocator, std::uint64_t sets, int ways)
    : hash(0x90D71B), num_sets(sets), num_ways(ways)
{
    NECPT_ASSERT(isPowerOf2(sets));
    bytes = num_sets * static_cast<std::uint64_t>(num_ways) * entry_bytes;
    base = allocator.allocRegion(bytes);
    entries.assign(num_sets * num_ways, Entry{});
}

Addr
PomTlb::probeAddr(Addr va) const
{
    // With the perfect size predictor a probe reads one set; charge the
    // set's base line. Miss probes use the 4KB key's set.
    for (auto size : all_page_sizes) {
        const auto key = keyOf(va, size);
        const Entry *base_entry = &entries[setOf(key) * num_ways];
        for (int w = 0; w < num_ways; ++w)
            if (base_entry[w].valid && base_entry[w].vpn == key)
                return base + setOf(key) * num_ways * entry_bytes;
    }
    return base + setOf(keyOf(va, PageSize::Page4K)) * num_ways
        * entry_bytes;
}

PomTlb::Result
PomTlb::lookup(Addr va)
{
    // Perfect size prediction: the matching size's set is probed
    // directly, one reference (Section 9.6 methodology).
    for (auto size : all_page_sizes) {
        const auto key = keyOf(va, size);
        Entry *base_entry = &entries[setOf(key) * num_ways];
        for (int w = 0; w < num_ways; ++w) {
            Entry &e = base_entry[w];
            if (e.valid && e.vpn == key) {
                e.lru = ++tick;
                stats_.hit();
                return {true, e.translation, probeAddr(va)};
            }
        }
    }
    stats_.miss();
    return {false, {}, probeAddr(va)};
}

void
PomTlb::install(Addr va, const Translation &translation)
{
    const auto key = keyOf(va, translation.size);
    Entry *base_entry = &entries[setOf(key) * num_ways];
    Entry *victim = &base_entry[0];
    for (int w = 0; w < num_ways; ++w) {
        Entry &e = base_entry[w];
        if (e.valid && e.vpn == key) {
            e.translation = translation;
            e.lru = ++tick;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    *victim = {key, translation, ++tick, true};
}

bool
PomTlb::invalidateKey(std::uint64_t key)
{
    Entry *base_entry = &entries[setOf(key) * num_ways];
    for (int w = 0; w < num_ways; ++w) {
        Entry &e = base_entry[w];
        if (e.valid && e.vpn == key) {
            e.valid = false;
            return true;
        }
    }
    return false;
}

std::size_t
PomTlb::invalidateRange(Addr base_va, std::uint64_t range_bytes)
{
    std::size_t count = 0;
    const Addr last = base_va + (range_bytes ? range_bytes - 1 : 0);
    for (auto size : all_page_sizes) {
        const auto lo = pageNumber(base_va, size);
        const auto hi = pageNumber(last, size);
        for (std::uint64_t vpn = lo; vpn <= hi; ++vpn) {
            count += invalidateKey(
                         (vpn << 2) | static_cast<std::uint64_t>(size))
                ? 1 : 0;
        }
    }
    return count;
}

} // namespace necpt
