#include "mmu/pom_tlb.hh"

#include "common/log.hh"

namespace necpt
{

namespace
{
constexpr std::uint64_t entry_bytes = 16; //!< tag + translation
}

PomTlb::PomTlb(RegionAllocator &allocator, std::uint64_t sets, int ways)
    : hash(0x90D71B), num_sets(sets), set_bits(floorLog2(sets)),
      num_ways(ways),
      entries(sets * static_cast<std::uint64_t>(ways),
              static_cast<std::size_t>(ways))
{
    NECPT_ASSERT(isPowerOf2(sets));
    bytes = num_sets * static_cast<std::uint64_t>(num_ways) * entry_bytes;
    base = allocator.allocRegion(bytes);
}

Addr
PomTlb::setAddr(std::uint64_t key) const
{
    return base + (key & (num_sets - 1)) * num_ways * entry_bytes;
}

PomTlb::Result
PomTlb::lookup(Addr va)
{
    // Perfect size prediction: the matching size's set is probed
    // directly, one reference (Section 9.6 methodology). A miss probe
    // reads the 4KB key's set.
    for (auto size : all_page_sizes) {
        const auto key = keyOf(pageNumber(va, size), size);
        if (const Translation *t = entries.find(key)) {
            stats_.hit();
            return {true, *t, setAddr(key)};
        }
    }
    stats_.miss();
    return {false, {},
            setAddr(keyOf(pageNumber(va, PageSize::Page4K),
                          PageSize::Page4K))};
}

void
PomTlb::install(Addr va, const Translation &translation)
{
    entries.insert(keyOf(pageNumber(va, translation.size),
                         translation.size),
                   translation);
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
            const auto key = keyOf(vpn, size);
            count += entries.invalidateKeys(key, key);
        }
    }
    return count;
}

} // namespace necpt
