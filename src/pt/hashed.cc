#include "pt/hashed.hh"

#include "common/log.hh"

namespace necpt
{

HashedPageTable::HashedPageTable(RegionAllocator &allocator,
                                 std::uint64_t slots, std::uint64_t seed)
    : hash(seed), num_slots(slots), table(slots)
{
    NECPT_ASSERT(isPowerOf2(slots));
    base = allocator.allocRegion(structureBytes());
}

bool
HashedPageTable::map(Addr va, Addr pa)
{
    const auto vpn = pageNumber(va, PageSize::Page4K);
    auto idx = slotOf(vpn);
    for (std::uint64_t i = 0; i < num_slots; ++i) {
        Slot &slot = table[idx];
        if (slot.state != Slot::State::Full) {
            slot = {vpn, pa, Slot::State::Full};
            ++used;
            return true;
        }
        if (slot.vpn == vpn) {
            slot.pa = pa; // remap
            return true;
        }
        idx = (idx + 1) & (num_slots - 1);
    }
    return false; // table full
}

void
HashedPageTable::map(Addr va, Addr pa, PageSize size)
{
    NECPT_ASSERT(size == PageSize::Page4K);
    const bool ok = map(va, pa);
    NECPT_ASSERT(ok);
}

void
HashedPageTable::unmap(Addr va, PageSize size)
{
    NECPT_ASSERT(size == PageSize::Page4K);
    const auto vpn = pageNumber(va, PageSize::Page4K);
    auto idx = slotOf(vpn);
    for (std::uint64_t i = 0; i < num_slots; ++i) {
        Slot &slot = table[idx];
        if (slot.state == Slot::State::Empty)
            return;
        if (slot.state == Slot::State::Full && slot.vpn == vpn) {
            slot.state = Slot::State::Tombstone;
            --used;
            return;
        }
        idx = (idx + 1) & (num_slots - 1);
    }
}

Translation
HashedPageTable::lookup(Addr va, std::vector<Addr> *probe_addrs) const
{
    const auto vpn = pageNumber(va, PageSize::Page4K);
    auto idx = slotOf(vpn);
    ++lookup_count;
    for (std::uint64_t i = 0; i < num_slots; ++i) {
        ++probe_count;
        if (probe_addrs)
            probe_addrs->push_back(slotAddr(idx));
        const Slot &slot = table[idx];
        if (slot.state == Slot::State::Empty)
            return {};
        if (slot.state == Slot::State::Full && slot.vpn == vpn)
            return {slot.pa, PageSize::Page4K, true};
        idx = (idx + 1) & (num_slots - 1);
    }
    return {};
}

double
HashedPageTable::avgProbes() const
{
    return lookup_count
        ? static_cast<double>(probe_count)
              / static_cast<double>(lookup_count)
        : 0.0;
}

} // namespace necpt
