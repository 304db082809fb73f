/**
 * @file
 * Cuckoo Walk Tables (CWTs) — the software metadata that prunes ECPT
 * walks (Sections 2.3, 3.2).
 *
 * There is one CWT per page size. We model the CWT as a dense,
 * VA-indexed array of 4-bit section descriptors, materialized in 4KB
 * chunks on first touch:
 *   - PTE-CWT: a section is one 32KB block (the 8 consecutive 4KB
 *     pages that share one PTE-ECPT entry); present => the block
 *     exists in the PTE-ECPT and `way` says which way holds it.
 *   - PMD-CWT: a section is a 2MB region; present => mapped by a 2MB
 *     huge page (way = PMD-ECPT way of its block).
 *   - PUD-CWT: a section is a 1GB region; same fields one level up.
 *
 * A Cuckoo Walk Cache entry tags 2048 sections, a quarter of a 4KB
 * chunk (8192 sections), so one entry reaches 64MB of VA at the PTE
 * level, 4GB at PMD and 2TB at PUD. Whether that geometry gives the
 * paper's Section 9.4 hit rates is open: ROADMAP item 6 measured that
 * the gCWC then takes only compulsory misses and the STC sees almost
 * no lookups.
 *
 * Guest CWT chunks live at guest-physical addresses and must be
 * host-translated before they can be fetched — the Shortcut
 * Translation Cache's reason to exist (Section 4.1).
 */

#ifndef NECPT_PT_CWT_HH
#define NECPT_PT_CWT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pt/pte.hh"

namespace necpt
{

/** Section granularity (log2 bytes) of the CWT for @p level. */
int sectionShiftFor(PageSize level);

/**
 * VA reach (log2 bytes) of one CWT entry at @p level: its
 * sections_per_entry sections. CuckooWalkTable::entryKey is
 * `va >> entryShiftFor(level)`, and the Cuckoo Walk Cache drops a
 * range by the same keys, so this is the one definition both share.
 */
int entryShiftFor(PageSize level);

/**
 * Decoded 4-bit CWT section descriptor.
 *
 * Two exclusive variants share the nibble: a section mapped by a page
 * of this CWT's size carries the ECPT way; an unmapped-at-this-size
 * section instead records *which smaller sizes* exist inside it, so a
 * single (high-reach) upper-level descriptor can pin the page size of
 * a uniformly-mapped region without consulting lower CWT levels.
 */
struct CwtDescriptor
{
    /** ECPT ways the 2-bit way field can name. */
    static constexpr int max_ways = 4;

    bool present = false;     //!< region mapped by a page of this size
    std::uint8_t way = 0;     //!< ECPT way holding it (present only)
    bool smaller_4k = false;  //!< region contains 4KB mappings
    bool smaller_2m = false;  //!< region contains 2MB mappings

    bool hasSmaller() const { return smaller_4k || smaller_2m; }
};

/**
 * One per-page-size Cuckoo Walk Table.
 */
class CuckooWalkTable
{
  public:
    /** Sections per CWC-cacheable entry: a 1KB sub-block of a chunk
     *  (see the file comment and ROADMAP item 6 for its reach). */
    static constexpr int sections_per_entry = 2048;
    /** CWT storage granularity: 4KB chunks materialized on demand. */
    static constexpr int sections_per_chunk = 8192;
    static constexpr std::uint64_t chunk_bytes = 4096;

    /**
     * @param allocator space source in this table's address space
     * @param level which page size this CWT describes
     */
    CuckooWalkTable(RegionAllocator &allocator, PageSize level);
    ~CuckooWalkTable();

    CuckooWalkTable(const CuckooWalkTable &) = delete;
    CuckooWalkTable &operator=(const CuckooWalkTable &) = delete;

    /** Mark the section containing @p va mapped at this size by @p way. */
    void setPresent(Addr va, int way);

    /** Clear the present bit of the section containing @p va. */
    void clearPresent(Addr va);

    /** Record that the section containing @p va holds pages of the
     *  (smaller) size @p smaller. */
    void setHasSmaller(Addr va, PageSize smaller);

    /**
     * Counted variant of setHasSmaller for the unmap/downgrade path:
     * records @p pages pages of @p smaller mapped in the section
     * containing @p va, so removeSmaller() can clear the has-smaller
     * bit exactly when the last such page goes away.
     */
    void addSmaller(Addr va, PageSize smaller, std::uint32_t pages = 1);

    /**
     * Record one page of @p smaller unmapped from the section
     * containing @p va; when its count reaches zero the stale
     * has-smaller bit is cleared — the CWT *downgrade* that keeps
     * walkers from probing sizes that no longer exist there.
     */
    void removeSmaller(Addr va, PageSize smaller);

    /**
     * Ground-truth descriptor for @p va. nullopt when no CWT chunk
     * covers the region at all (nothing ever mapped there).
     */
    std::optional<CwtDescriptor> query(Addr va) const;

    /**
     * Visit every present section: fn(va, way) with the section's
     * first VA and its way. Reads only materialized chunks, in no
     * particular order (the invariant audit).
     */
    template <typename Fn>
    void
    forEachPresent(Fn &&fn) const
    {
        for (const auto &[key, chunk] : chunks) {
            for (int section = 0; section < sections_per_chunk; ++section) {
                const std::uint8_t byte = chunk.nibbles[section / 2];
                const CwtDescriptor d =
                    unpackNibble((byte >> ((section % 2) * 4)) & 0xF);
                if (d.present)
                    fn(key << chunk_shift
                           | static_cast<Addr>(section) << section_shift,
                       static_cast<int>(d.way));
            }
        }
    }

    /**
     * The key identifying the CWT chunk covering @p va — what the
     * Cuckoo Walk Cache tags by.
     */
    std::uint64_t
    entryKey(Addr va) const
    {
        return va >> entry_shift;
    }

    /**
     * Physical addresses a hardware refill of the entry covering
     * @p va must fetch (the descriptor line within the chunk); none
     * while the chunk has no region.
     */
    void entryProbeAddrs(Addr va, std::vector<Addr> &out) const;

    PageSize level() const { return level_; }
    int sectionShift() const { return section_shift; }
    std::uint64_t structureBytes() const
    {
        return chunks.size() * chunk_bytes;
    }

  private:
    struct Chunk
    {
        Addr base = invalid_addr;              //!< physical address
        std::array<std::uint8_t, chunk_bytes> nibbles{};
    };

    int sectionOf(Addr va) const
    {
        return static_cast<int>((va >> section_shift)
                                & (sections_per_chunk - 1));
    }

    /** The chunk covering @p va, materialized on first touch. */
    Chunk &chunkOf(Addr va);
    const Chunk *peekChunk(Addr va) const;

    /** Descriptor of @p va's section, materializing its chunk. */
    CwtDescriptor load(Addr va);

    /** Overwrite one section descriptor (chunk materialized). */
    void update(Addr va, const CwtDescriptor &d);

    /** Per-section smaller-size counts of @p va's section, created on
     *  first use. */
    std::array<std::uint32_t, 2> &smallerCounts(Addr va);

    static std::uint8_t packNibble(const CwtDescriptor &d);
    static CwtDescriptor unpackNibble(std::uint8_t nibble);

    std::uint64_t chunkKey(Addr va) const
    {
        return va >> chunk_shift;
    }

    std::uint64_t sectionKey(Addr va) const
    {
        return va >> section_shift;
    }

    RegionAllocator &alloc;
    PageSize level_;
    int section_shift;
    int entry_shift;
    int chunk_shift;
    std::unordered_map<std::uint64_t, Chunk> chunks;
    /** Per-section counts of pages mapped at each smaller size
     *  ([0]=4K, [1]=2M) — OS bookkeeping, not simulated storage; it
     *  backs the exact clear in removeSmaller(). */
    std::unordered_map<std::uint64_t, std::array<std::uint32_t, 2>>
        smaller_counts;

    /// @name Last-used memos
    /// Prefault maps pages in address order, so consecutive updates
    /// land in the same chunk and section. Map nodes never move, so a
    /// memo stays valid until its entry is erased. Only the mutation
    /// path writes them; const lookups may only read.
    /// @{
    std::uint64_t memo_chunk_key = 0;
    Chunk *memo_chunk = nullptr;
    std::uint64_t memo_section_key = 0;
    std::array<std::uint32_t, 2> *memo_counts = nullptr;
    /// @}
};

} // namespace necpt

#endif // NECPT_PT_CWT_HH
