/**
 * @file
 * The per-core data-TLB hierarchy of Table 2: split L1 DTLBs per page
 * size (64x4-way for 4KB, 32x4-way for 2MB, 4-entry FA for 1GB) backed
 * by split L2 DTLBs (1020-entry 12-way, i.e. 85 sets, for 4KB and 2MB;
 * 16x4-way for 1GB). Table 2's 1024 entries are not a multiple of 12
 * ways, so the model keeps the largest multiple below it.
 *
 * Entries map a guest-virtual page directly to its host-physical frame
 * — the {gVA, hPA} pair loaded at the end of a nested walk (Section 5).
 * In native configurations the same structure holds {VA, PA}.
 */

#ifndef NECPT_MMU_TLB_HH
#define NECPT_MMU_TLB_HH

#include <array>
#include <cstdint>
#include <memory>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "mmu/assoc_cache.hh"
#include "pt/pte.hh"

namespace necpt
{

/** Geometry of the TLB hierarchy (defaults = Table 2). */
struct TlbConfig
{
    struct LevelGeom
    {
        std::size_t entries;
        std::size_t ways; //!< 0 = fully associative
    };
    std::array<LevelGeom, num_page_sizes> l1{{{64, 4}, {32, 4}, {4, 0}}};
    std::array<LevelGeom, num_page_sizes> l2{{{1020, 12}, {1020, 12},
                                              {16, 4}}};
    Cycles l1_latency = 2;
    Cycles l2_latency = 12;
};

/**
 * Two-level, per-page-size-split data TLB.
 */
class TlbHierarchy
{
  public:
    /** Outcome of a TLB lookup. */
    struct Result
    {
        bool hit = false;
        bool l1_hit = false;
        Cycles latency = 0;   //!< cycles beyond the L1 pipeline access
        Translation translation;
    };

    explicit TlbHierarchy(const TlbConfig &config = TlbConfig{});

    /**
     * Probe L1 (all size classes in parallel), then L2.
     * An L1 hit costs nothing extra; an L2 hit costs the L2 round trip.
     */
    Result lookup(Addr va);

    /** Install the result of a completed walk into L1 and L2. */
    void install(Addr va, const Translation &translation);

    /// @name Translation coherence (shootdown receive side)
    /// @{
    /** Invalidate every entry overlapping [base, base+bytes).
     *  Survivors keep their LRU ranks. */
    std::size_t invalidateRange(Addr base, std::uint64_t bytes);

    /** Does any level hold a translation for @p va? No stats or LRU
     *  side effects; a test observer (hw mode counts sharers from the
     *  drop counts invalidateRange returns). */
    bool holds(Addr va) const;
    /// @}

    /// @name Statistics
    /// @{
    const HitMiss &l1Stats() const { return l1_stats; }
    const HitMiss &l2Stats() const { return l2_stats; }
    void
    resetStats()
    {
        l1_stats.reset();
        l2_stats.reset();
    }
    /// @}

  private:
    /** One page size's entries: VPN -> frame base. */
    using SizeTlb = AssocCache<Addr>;

    TlbConfig cfg;
    std::array<std::unique_ptr<SizeTlb>, num_page_sizes> l1;
    std::array<std::unique_ptr<SizeTlb>, num_page_sizes> l2;
    HitMiss l1_stats;
    HitMiss l2_stats;
};

} // namespace necpt

#endif // NECPT_MMU_TLB_HH
