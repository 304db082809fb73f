/**
 * @file
 * The 4-level x86-64 radix page table (Figure 1).
 *
 * Levels are numbered as in the paper: L4 = PGD, L3 = PUD, L2 = PMD,
 * L1 = PTE. Each node is a 4KB frame of 512 8-byte entries allocated from
 * a RegionAllocator, so every entry has a real (simulated) physical
 * address — the walkers fetch those addresses through the cache
 * hierarchy. Huge pages terminate the tree early: a 2MB page is a leaf
 * at L2 and a 1GB page a leaf at L3.
 */

#ifndef NECPT_PT_RADIX_HH
#define NECPT_PT_RADIX_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/log.hh"
#include "pt/page_table.hh"

namespace necpt
{

/** One step of a radix walk: which entry address at which level. */
struct RadixStep
{
    Addr entry_addr;  //!< physical address of the entry fetched
    int level;        //!< 4 (PGD) down to 1 (PTE)
    bool leaf;        //!< true when this entry mapped the page
};

/**
 * The entries one walk fetches, top level first: at most one per level
 * of a 5-level tree, held inline so that a walk never allocates.
 */
class RadixSteps
{
  public:
    static constexpr std::size_t capacity = 5;

    void
    push_back(const RadixStep &step)
    {
        NECPT_ASSERT(count < capacity);
        steps[count++] = step;
    }

    void clear() { count = 0; }
    std::size_t size() const { return count; }

    const RadixStep *begin() const { return steps.data(); }
    const RadixStep *end() const { return steps.data() + count; }
    const RadixStep &operator[](std::size_t i) const { return steps[i]; }
    const RadixStep &front() const { return steps[0]; }
    const RadixStep &back() const { return steps[count - 1]; }

  private:
    std::array<RadixStep, capacity> steps{};
    std::size_t count = 0;
};

/**
 * Software-managed radix page table.
 */
class RadixPageTable final : public PageTable
{
  public:
    static constexpr PtKind kind = PtKind::Radix;

    /**
     * @param allocator source of 4KB node frames (guest- or host-phys)
     * @param levels tree depth: 4 (x86-64) or 5 (Sunny-Cove LA57,
     *        the Section-1 motivation for why radix nesting worsens)
     */
    explicit RadixPageTable(RegionAllocator &allocator, int levels = 4);
    ~RadixPageTable() override;

    /** The tree's top level (4 or 5). */
    int topLevel() const { return top_level; }

    /**
     * Install the mapping va -> pa for a page of @p size.
     * Intermediate nodes are created on demand.
     */
    void map(Addr va, Addr pa, PageSize size) override;

    /** Remove the mapping for the page containing @p va. */
    void unmap(Addr va, PageSize size) override;

    /** Functional lookup (no timing). */
    Translation lookup(Addr va) const override;

    /**
     * Functional lookup that also reports every entry address a hardware
     * walker would touch, top level first (the walk chain of Figure 1).
     */
    Translation walk(Addr va, RadixSteps &steps) const;

    /** Physical address of the root node (the CR3 contents). */
    Addr root() const;

    /** Number of table nodes currently allocated. */
    std::uint64_t nodeCount() const { return nodes; }

    /** Total bytes of table structure (4KB per node), for Section 9.5. */
    std::uint64_t structureBytes() const override { return nodes * 4096ULL; }

    /** Number of leaf mappings installed. */
    std::uint64_t mappingCount() const override { return mappings; }

  private:
    struct Node;

    /** One 8-byte slot of a node. */
    struct Entry
    {
        enum class Kind : std::uint8_t { None, Table, Leaf };
        Kind kind = Kind::None;
        std::unique_ptr<Node> child; //!< valid when kind == Table
        Addr leaf_pa = invalid_addr; //!< valid when kind == Leaf
    };

    struct Node
    {
        Addr frame;                    //!< physical base of this 4KB node
        std::array<Entry, 512> slots;

        explicit Node(Addr frame_addr) : frame(frame_addr) {}

        Addr entryAddr(unsigned idx) const { return frame + idx * pte_bytes; }
    };

    /** Radix level at which pages of @p size are leaves. */
    static int leafLevel(PageSize size);

    Node *ensureChild(Node *node, unsigned idx);

    /** The walk behind lookup() and walk(); records each entry fetched
     *  into @p steps when non-null. */
    Translation descend(Addr va, RadixSteps *steps) const;

    /** True when no leaf mapping lives anywhere under @p node. */
    static bool subtreeEmpty(const Node *node);

    /** Free @p child and its descendants' node frames. */
    void freeSubtree(std::unique_ptr<Node> &child);

    RegionAllocator &alloc;
    int top_level;
    std::unique_ptr<Node> root_;
    std::uint64_t nodes = 0;
    std::uint64_t mappings = 0;
};

} // namespace necpt

#endif // NECPT_PT_RADIX_HH
