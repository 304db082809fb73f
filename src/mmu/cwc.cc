#include "mmu/cwc.hh"

namespace necpt
{

CuckooWalkCache::CuckooWalkCache(
    const std::array<std::size_t, num_page_sizes> &capacity,
    Cycles latency_cycles)
    : latency_(latency_cycles)
{
    for (int s = 0; s < num_page_sizes; ++s)
        if (capacity[s] > 0)
            levels[s] = std::make_unique<Level>(capacity[s]);
}

bool
CuckooWalkCache::lookup(PageSize level, std::uint64_t entry_key)
{
    Level *cache = levels[static_cast<int>(level)].get();
    if (cache && cache->find(entry_key)) {
        stats_[static_cast<int>(level)].hit();
        return true;
    }
    stats_[static_cast<int>(level)].miss();
    return false;
}

void
CuckooWalkCache::fill(PageSize level, std::uint64_t entry_key)
{
    if (Level *cache = levels[static_cast<int>(level)].get())
        cache->insert(entry_key, true);
}

std::size_t
CuckooWalkCache::invalidateRange(Addr base, std::uint64_t bytes)
{
    std::size_t count = 0;
    const Addr last = base + (bytes ? bytes - 1 : 0);
    for (int s = 0; s < num_page_sizes; ++s) {
        Level *cache = levels[s].get();
        if (!cache)
            continue;
        // The keys CuckooWalkTable::entryKey fills with.
        const int shift = entryShiftFor(all_page_sizes[s]);
        count += cache->invalidateKeys(base >> shift, last >> shift);
    }
    return count;
}

} // namespace necpt
