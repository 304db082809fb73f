#include "mmu/tlb.hh"

#include <memory>

namespace necpt
{

TlbHierarchy::TlbHierarchy(const TlbConfig &config)
    : cfg(config)
{
    for (int s = 0; s < num_page_sizes; ++s) {
        l1[s] = std::make_unique<SizeTlb>(cfg.l1[s].entries,
                                          cfg.l1[s].ways);
        l2[s] = std::make_unique<SizeTlb>(cfg.l2[s].entries,
                                          cfg.l2[s].ways);
    }
}

TlbHierarchy::Result
TlbHierarchy::lookup(Addr va)
{
    // L1: all size classes probed in parallel in the pipeline.
    for (int s = 0; s < num_page_sizes; ++s) {
        const auto size = all_page_sizes[s];
        if (const Addr *pa = l1[s]->find(pageNumber(va, size))) {
            l1_stats.hit();
            return {true, true, 0, {*pa, size, true}};
        }
    }
    l1_stats.miss();

    // L2 probe.
    for (int s = 0; s < num_page_sizes; ++s) {
        const auto size = all_page_sizes[s];
        if (const Addr *pa = l2[s]->find(pageNumber(va, size))) {
            l2_stats.hit();
            // Refill L1 for subsequent accesses.
            l1[s]->insert(pageNumber(va, size), *pa);
            return {true, false, cfg.l2_latency, {*pa, size, true}};
        }
    }
    l2_stats.miss();
    return {false, false, cfg.l2_latency, {}};
}

void
TlbHierarchy::install(Addr va, const Translation &translation)
{
    const int s = static_cast<int>(translation.size);
    const auto vpn = pageNumber(va, translation.size);
    l1[s]->insert(vpn, translation.pa);
    l2[s]->insert(vpn, translation.pa);
}

std::size_t
TlbHierarchy::invalidateRange(Addr base, std::uint64_t bytes)
{
    std::size_t count = 0;
    const Addr last = base + (bytes ? bytes - 1 : 0);
    for (int s = 0; s < num_page_sizes; ++s) {
        const auto size = all_page_sizes[s];
        // Any page overlapping the range dies, including a huge page
        // that merely contains it.
        const auto lo = pageNumber(base, size);
        const auto hi = pageNumber(last, size);
        count += l1[s]->invalidateKeys(lo, hi);
        count += l2[s]->invalidateKeys(lo, hi);
    }
    return count;
}

bool
TlbHierarchy::holds(Addr va) const
{
    for (int s = 0; s < num_page_sizes; ++s) {
        const auto vpn = pageNumber(va, all_page_sizes[s]);
        if (l1[s]->peek(vpn) || l2[s]->peek(vpn))
            return true;
    }
    return false;
}

} // namespace necpt
