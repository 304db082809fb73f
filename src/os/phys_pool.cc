#include "os/phys_pool.hh"

#include <utility>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/log.hh"

namespace necpt
{

PhysMemPool::PhysMemPool(Addr base, std::uint64_t capacity_bytes,
                         std::string pool_name)
    : base_(base), capacity(capacity_bytes), bump(base),
      name_(std::move(pool_name))
{
    NECPT_ASSERT(pageOffset(base, PageSize::Page1G) == 0);
    region_zone = base + alignDown(capacity_bytes * 7 / 8,
                                   pageBytes(PageSize::Page1G));
    region_bump = region_zone;
}

void
PhysMemPool::maybeInjectFailure(const char *what, std::uint64_t bytes)
{
    if (fault_plan && fault_plan->failPoolAlloc(fillFraction()))
        throw ResourceExhausted(strfmt(
            "pool '%s': injected %s failure for %llu bytes at fill "
            "%.3f (%llu of %llu bytes used)", name_.c_str(), what,
            (unsigned long long)bytes, fillFraction(),
            (unsigned long long)used, (unsigned long long)capacity));
}

Addr
PhysMemPool::bumpAlloc(std::uint64_t bytes, std::uint64_t align)
{
    const Addr aligned = alignUp(bump, align);
    if (aligned + bytes > base_ + capacity * 7 / 8)
        throw ResourceExhausted(strfmt(
            "pool '%s': frame zone exhausted allocating %llu bytes "
            "(%llu of %llu bytes used)", name_.c_str(),
            (unsigned long long)bytes, (unsigned long long)used,
            (unsigned long long)capacity));
    bump = aligned + bytes;
    return aligned;
}

Addr
PhysMemPool::bumpAllocRegion(std::uint64_t bytes, std::uint64_t align)
{
    const Addr aligned = alignUp(region_bump, align);
    if (aligned + bytes > base_ + capacity)
        throw ResourceExhausted(strfmt(
            "pool '%s': region zone exhausted allocating %llu bytes "
            "(%llu of %llu bytes used)", name_.c_str(),
            (unsigned long long)bytes, (unsigned long long)used,
            (unsigned long long)capacity));
    region_bump = aligned + bytes;
    return aligned;
}

Addr
PhysMemPool::allocFrame(PageSize size)
{
    const auto bytes = pageBytes(size);
    maybeInjectFailure("frame allocation", bytes);
    auto &list = free_frames[static_cast<int>(size)];
    if (!list.empty()) {
        const Addr frame = list.back();
        list.pop_back();
        used += bytes;
        return frame;
    }
    // Account only after the bump succeeds: a ResourceExhausted from
    // a full zone must leave usedBytes() consistent, since the sweep
    // engine may retry the job against a fresh machine but tests
    // assert accounting on the surviving pool.
    const Addr frame = bumpAlloc(bytes, bytes);
    used += bytes;
    return frame;
}

void
PhysMemPool::freeFrame(Addr frame, PageSize size)
{
    NECPT_ASSERT(pageOffset(frame, size) == 0);
    used -= pageBytes(size);
    free_frames[static_cast<int>(size)].push_back(frame);
}

Addr
PhysMemPool::allocRegion(std::uint64_t bytes)
{
    bytes = alignUp(bytes, 4096);
    maybeInjectFailure("region allocation", bytes);
    auto it = free_regions.find(bytes);
    if (it != free_regions.end() && !it->second.empty()) {
        const Addr region = it->second.back();
        it->second.pop_back();
        used += bytes;
        return region;
    }
    // Natural alignment (capped at 2MB) keeps a table region within as
    // few CWT-entry windows as possible — the locality that makes the
    // tiny Step-1 hCWC effective (Section 4.2).
    std::uint64_t align = 4096;
    while (align < bytes && align < (2ULL << 20))
        align <<= 1;
    const Addr region = bumpAllocRegion(bytes, align);
    used += bytes;
    return region;
}

void
PhysMemPool::freeRegion(Addr region_base, std::uint64_t bytes)
{
    bytes = alignUp(bytes, 4096);
    used -= bytes;
    free_regions[bytes].push_back(region_base);
}

void
PtRegionRegistry::add(Addr pt_base, std::uint64_t bytes)
{
    regions[pt_base] = bytes;
}

void
PtRegionRegistry::remove(Addr pt_base, std::uint64_t bytes)
{
    (void)bytes;
    regions.erase(pt_base);
}

bool
PtRegionRegistry::contains(Addr addr) const
{
    auto it = regions.upper_bound(addr);
    if (it == regions.begin())
        return false;
    --it;
    return addr < it->first + it->second;
}

Addr
ScatteredPtAllocator::allocRegion(std::uint64_t bytes)
{
    NECPT_ASSERT(bytes == 4096);
    const Addr base = pool.allocFrame(PageSize::Page4K);
    registry.add(base, bytes);
    return base;
}

void
ScatteredPtAllocator::freeRegion(Addr base, std::uint64_t bytes)
{
    NECPT_ASSERT(bytes == 4096);
    registry.remove(base, bytes);
    pool.freeFrame(base, PageSize::Page4K);
}

} // namespace necpt
