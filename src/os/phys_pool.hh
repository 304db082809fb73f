/**
 * @file
 * Physical-memory pool: the frame and region allocator used by the
 * guest OS (for guest-physical space) and the hypervisor (for
 * host-physical space).
 *
 * Frames of any supported page size are handed out aligned; freed
 * frames and regions are recycled from size-indexed free lists. Table
 * regions (ECPT ways, CWTs, radix nodes, flat arrays) are carved
 * contiguously — matching how the real OS reserves them.
 *
 * Exhaustion (real or injected via a FaultPlan) throws
 * ResourceExhausted naming the owning pool; callers up the stack
 * either absorb it (elastic resize retries) or let the sweep engine
 * record it as a typed job failure.
 */

#ifndef NECPT_OS_PHYS_POOL_HH
#define NECPT_OS_PHYS_POOL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "pt/pte.hh"

namespace necpt
{

class FaultPlan;

/**
 * A bump-plus-freelist allocator over one physical address space.
 */
class PhysMemPool : public RegionAllocator
{
  public:
    /**
     * @param base lowest address of the pool
     * @param capacity_bytes pool size (the Table-2 machine has 80GB)
     * @param pool_name owning-structure name used in error messages
     */
    PhysMemPool(Addr base, std::uint64_t capacity_bytes,
                std::string pool_name = "phys");

    /** Allocate one naturally-aligned frame of @p size. */
    Addr allocFrame(PageSize size);

    /** Return a frame to the pool. */
    void freeFrame(Addr frame, PageSize size);

    /** RegionAllocator: contiguous, 4KB-aligned region of @p bytes. */
    Addr allocRegion(std::uint64_t bytes) override;
    void freeRegion(Addr region_base, std::uint64_t bytes) override;

    /// @name Occupancy
    /// @{
    std::uint64_t usedBytes() const { return used; }
    std::uint64_t capacityBytes() const { return capacity; }
    double
    fillFraction() const
    {
        return capacity ? static_cast<double>(used) / capacity : 1.0;
    }
    /// @}

    const std::string &name() const { return name_; }

    /** Lowest address of the region zone (see region_bump). */
    Addr regionZoneBase() const { return region_zone; }

    /** Arm (or disarm, with nullptr) injected allocation failures.
     *  The plan must outlive the pool's use of it. */
    void setFaultPlan(FaultPlan *plan) { fault_plan = plan; }

  private:
    Addr bumpAlloc(std::uint64_t bytes, std::uint64_t align);
    Addr bumpAllocRegion(std::uint64_t bytes, std::uint64_t align);
    void maybeInjectFailure(const char *what, std::uint64_t bytes);

    Addr base_;
    std::uint64_t capacity;
    Addr bump;
    /**
     * Table regions are carved from a separate high zone (top eighth
     * of the pool) so data frames and page-table structures never
     * share a 1GB region — keeping data regions size-uniform, which
     * the CWT descriptors exploit.
     */
    Addr region_zone;
    Addr region_bump;
    std::uint64_t used = 0;
    std::string name_;
    FaultPlan *fault_plan = nullptr;

    /** Freed frames per size class. */
    std::vector<Addr> free_frames[num_page_sizes];
    /** Freed regions keyed by exact byte size (resizes are 2^k). */
    std::map<std::uint64_t, std::vector<Addr>> free_regions;
};

/**
 * Registry of guest-physical ranges that hold page-table structures.
 *
 * The hypervisor consults it to honor the Section-4.3 contract: page
 * tables are always backed by 4KB host pages, so Step-1 host probes
 * only ever need the PTE-hECPT.
 */
class PtRegionRegistry
{
  public:
    void add(Addr pt_base, std::uint64_t bytes);
    void remove(Addr pt_base, std::uint64_t bytes);
    bool contains(Addr addr) const;

  private:
    std::map<Addr, std::uint64_t> regions; //!< base -> length
};

/**
 * RegionAllocator adapter that registers every allocation as a
 * page-table region. Used for guest ECPT/CWT space: elastic cuckoo
 * ways and CWTs are genuinely large contiguous reservations, so they
 * come from the pool's dedicated region zone.
 */
class PtRegionAllocator : public RegionAllocator
{
  public:
    PtRegionAllocator(PhysMemPool &pool_ref, PtRegionRegistry &registry_ref)
        : pool(pool_ref), registry(registry_ref)
    {}

    Addr
    allocRegion(std::uint64_t bytes) override
    {
        const Addr pt_base = pool.allocRegion(bytes);
        registry.add(pt_base, bytes);
        return pt_base;
    }

    void
    freeRegion(Addr pt_base, std::uint64_t bytes) override
    {
        registry.remove(pt_base, bytes);
        pool.freeRegion(pt_base, bytes);
    }

  private:
    PhysMemPool &pool;
    PtRegionRegistry &registry;
};

/**
 * RegionAllocator adapter for *radix* page-table nodes: real kernels
 * allocate the 4KB nodes from the general page allocator, scattered
 * among data frames (they get no contiguity guarantee). Nodes are
 * still registered so the hypervisor backs them with 4KB pages. Every
 * request is exactly one 4KB node.
 */
class ScatteredPtAllocator : public RegionAllocator
{
  public:
    ScatteredPtAllocator(PhysMemPool &pool_ref,
                         PtRegionRegistry &registry_ref)
        : pool(pool_ref), registry(registry_ref)
    {}

    Addr allocRegion(std::uint64_t bytes) override;
    void freeRegion(Addr base, std::uint64_t bytes) override;

  private:
    PhysMemPool &pool;
    PtRegionRegistry &registry;
};

} // namespace necpt

#endif // NECPT_OS_PHYS_POOL_HH
