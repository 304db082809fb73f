#include "pt/cwt.hh"

#include "common/log.hh"

namespace necpt
{

/** Section granularity per CWT level (see file header). */
int
sectionShiftFor(PageSize level)
{
    switch (level) {
      case PageSize::Page4K:
        return pageShift(PageSize::Page4K) + 3; // 32KB PTE-ECPT block
      case PageSize::Page2M:
        return pageShift(PageSize::Page2M);
      case PageSize::Page1G:
        return pageShift(PageSize::Page1G);
    }
    return 15;
}

int
entryShiftFor(PageSize level)
{
    static_assert(CuckooWalkTable::sections_per_entry == 1 << 11);
    return sectionShiftFor(level) + 11;
}

CuckooWalkTable::CuckooWalkTable(RegionAllocator &allocator, PageSize level)
    : alloc(allocator),
      level_(level),
      section_shift(sectionShiftFor(level)),
      entry_shift(entryShiftFor(level)),
      chunk_shift(sectionShiftFor(level) + 13)   // 8192-section chunk
{
}

CuckooWalkTable::~CuckooWalkTable()
{
    for (auto &[key, chunk] : chunks)
        alloc.freeRegion(chunk.base, chunk_bytes);
}

CuckooWalkTable::Chunk &
CuckooWalkTable::chunkOf(Addr va)
{
    const std::uint64_t key = chunkKey(va);
    if (memo_chunk && memo_chunk_key == key)
        return *memo_chunk;
    auto [it, fresh] = chunks.try_emplace(key);
    if (fresh)
        it->second.base = alloc.allocRegion(chunk_bytes);
    memo_chunk_key = key;
    memo_chunk = &it->second;
    return it->second;
}

const CuckooWalkTable::Chunk *
CuckooWalkTable::peekChunk(Addr va) const
{
    const std::uint64_t key = chunkKey(va);
    if (memo_chunk && memo_chunk_key == key)
        return memo_chunk;
    auto it = chunks.find(key);
    return it == chunks.end() ? nullptr : &it->second;
}

std::array<std::uint32_t, 2> &
CuckooWalkTable::smallerCounts(Addr va)
{
    const std::uint64_t key = sectionKey(va);
    if (!memo_counts || memo_section_key != key) {
        memo_counts = &smaller_counts[key];
        memo_section_key = key;
    }
    return *memo_counts;
}

std::uint8_t
CuckooWalkTable::packNibble(const CwtDescriptor &d)
{
    // present=1: | spare | way(2) | 1 |
    // present=0: | spare | smaller_2m | smaller_4k | 0 |
    if (d.present)
        return static_cast<std::uint8_t>(1u | (d.way & 0x3) << 1);
    return static_cast<std::uint8_t>((d.smaller_4k ? 1u : 0u) << 1
                                     | (d.smaller_2m ? 1u : 0u) << 2);
}

CwtDescriptor
CuckooWalkTable::unpackNibble(std::uint8_t nibble)
{
    CwtDescriptor d;
    d.present = nibble & 0x1;
    if (d.present) {
        d.way = static_cast<std::uint8_t>((nibble >> 1) & 0x3);
    } else {
        d.smaller_4k = (nibble >> 1) & 0x1;
        d.smaller_2m = (nibble >> 2) & 0x1;
    }
    return d;
}

CwtDescriptor
CuckooWalkTable::load(Addr va)
{
    const int section = sectionOf(va);
    const std::uint8_t byte = chunkOf(va).nibbles[section / 2];
    return unpackNibble((byte >> ((section % 2) * 4)) & 0xF);
}

void
CuckooWalkTable::update(Addr va, const CwtDescriptor &d)
{
    Chunk &chunk = chunkOf(va);
    const int section = sectionOf(va);
    std::uint8_t &byte = chunk.nibbles[section / 2];
    const int shift = (section % 2) * 4;
    byte = static_cast<std::uint8_t>(
        (byte & ~(0xF << shift)) | (packNibble(d) << shift));
}

void
CuckooWalkTable::setPresent(Addr va, int way)
{
    // A section mapped at this size has nothing smaller inside it.
    CwtDescriptor d;
    d.present = true;
    d.way = static_cast<std::uint8_t>(way);
    update(va, d);
}

void
CuckooWalkTable::clearPresent(Addr va)
{
    CwtDescriptor d = load(va);
    d.present = false;
    d.way = 0;
    update(va, d);
}

void
CuckooWalkTable::setHasSmaller(Addr va, PageSize smaller)
{
    CwtDescriptor d = load(va);
    const bool already = (smaller == PageSize::Page4K && d.smaller_4k)
        || (smaller == PageSize::Page2M && d.smaller_2m);
    if (already && !d.present)
        return; // avoid RMW churn
    d.present = false;
    d.way = 0;
    if (smaller == PageSize::Page4K)
        d.smaller_4k = true;
    else if (smaller == PageSize::Page2M)
        d.smaller_2m = true;
    update(va, d);
}

void
CuckooWalkTable::addSmaller(Addr va, PageSize smaller, std::uint32_t pages)
{
    const int idx = smaller == PageSize::Page4K ? 0 : 1;
    smallerCounts(va)[idx] += pages;
    setHasSmaller(va, smaller);
}

void
CuckooWalkTable::removeSmaller(Addr va, PageSize smaller)
{
    const int idx = smaller == PageSize::Page4K ? 0 : 1;
    auto it = smaller_counts.find(sectionKey(va));
    NECPT_ASSERT(it != smaller_counts.end() && it->second[idx] > 0);
    if (--it->second[idx] > 0)
        return;
    // Last page of this size in the section: downgrade the descriptor.
    CwtDescriptor d = load(va);
    if (smaller == PageSize::Page4K)
        d.smaller_4k = false;
    else
        d.smaller_2m = false;
    update(va, d);
    if (it->second[0] == 0 && it->second[1] == 0) {
        if (memo_counts == &it->second)
            memo_counts = nullptr;
        smaller_counts.erase(it);
    }
}

std::optional<CwtDescriptor>
CuckooWalkTable::query(Addr va) const
{
    const Chunk *chunk = peekChunk(va);
    if (!chunk)
        return std::nullopt;
    const int section = sectionOf(va);
    const std::uint8_t byte = chunk->nibbles[section / 2];
    return unpackNibble((byte >> ((section % 2) * 4)) & 0xF);
}

void
CuckooWalkTable::entryProbeAddrs(Addr va, std::vector<Addr> &out) const
{
    const Chunk *chunk = peekChunk(va);
    // The refill fetches the descriptor line within the chunk. A
    // chunk never carved (untouched, or its region allocation threw)
    // has no line in memory, so the refill fetches nothing.
    const Addr base = chunk ? chunk->base : invalid_addr;
    if (base == invalid_addr)
        return;
    const int section = sectionOf(va);
    out.push_back(base + static_cast<Addr>(section / 2) / line_bytes
                             * line_bytes);
}

} // namespace necpt
