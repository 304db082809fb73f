#include "pt/radix.hh"

#include "common/log.hh"

namespace necpt
{

RadixPageTable::RadixPageTable(RegionAllocator &allocator, int levels)
    : alloc(allocator), top_level(levels)
{
    NECPT_ASSERT(levels == 4 || levels == 5);
    root_ = std::make_unique<Node>(alloc.allocRegion(4096));
    ++nodes;
}

RadixPageTable::~RadixPageTable() = default;

int
RadixPageTable::leafLevel(PageSize size)
{
    switch (size) {
      case PageSize::Page4K: return 1;
      case PageSize::Page2M: return 2;
      case PageSize::Page1G: return 3;
    }
    return 1;
}

RadixPageTable::Node *
RadixPageTable::ensureChild(Node *node, unsigned idx)
{
    Entry &entry = node->slots[idx];
    if (entry.kind == Entry::Kind::Leaf)
        panic("radix: table node requested under an existing leaf");
    if (entry.kind == Entry::Kind::None) {
        entry.kind = Entry::Kind::Table;
        entry.child = std::make_unique<Node>(alloc.allocRegion(4096));
        ++nodes;
    }
    return entry.child.get();
}

void
RadixPageTable::map(Addr va, Addr pa, PageSize size)
{
    NECPT_ASSERT(pageOffset(va, size) == 0);
    NECPT_ASSERT(pageOffset(pa, size) == 0);
    const int leaf = leafLevel(size);
    Node *node = root_.get();
    for (int level = top_level; level > leaf; --level)
        node = ensureChild(node, radixIndex(va, level));
    Entry &entry = node->slots[radixIndex(va, leaf)];
    if (entry.kind == Entry::Kind::Table) {
        // Huge-page collapse (THP promotion): the 4KB pieces were
        // unmapped first, so the subtree is empty — free its table
        // pages the way khugepaged frees the PTE page.
        NECPT_ASSERT(subtreeEmpty(entry.child.get()));
        freeSubtree(entry.child);
        entry.kind = Entry::Kind::None;
    }
    if (entry.kind == Entry::Kind::None)
        ++mappings;
    entry.kind = Entry::Kind::Leaf;
    entry.leaf_pa = pa;
}

bool
RadixPageTable::subtreeEmpty(const Node *node)
{
    for (const Entry &e : node->slots) {
        if (e.kind == Entry::Kind::Leaf)
            return false;
        if (e.kind == Entry::Kind::Table && !subtreeEmpty(e.child.get()))
            return false;
    }
    return true;
}

void
RadixPageTable::freeSubtree(std::unique_ptr<Node> &child)
{
    for (Entry &e : child->slots)
        if (e.kind == Entry::Kind::Table)
            freeSubtree(e.child);
    alloc.freeRegion(child->frame, 4096);
    --nodes;
    child.reset();
}

void
RadixPageTable::unmap(Addr va, PageSize size)
{
    const int leaf = leafLevel(size);
    Node *node = root_.get();
    for (int level = top_level; level > leaf; --level) {
        Entry &entry = node->slots[radixIndex(va, level)];
        if (entry.kind != Entry::Kind::Table)
            return; // nothing mapped here
        node = entry.child.get();
    }
    Entry &entry = node->slots[radixIndex(va, leaf)];
    if (entry.kind == Entry::Kind::Leaf) {
        entry.kind = Entry::Kind::None;
        entry.leaf_pa = invalid_addr;
        --mappings;
    }
}

Translation
RadixPageTable::lookup(Addr va) const
{
    return descend(va, nullptr);
}

Translation
RadixPageTable::walk(Addr va, RadixSteps &steps) const
{
    return descend(va, &steps);
}

Translation
RadixPageTable::descend(Addr va, RadixSteps *steps) const
{
    const Node *node = root_.get();
    for (int level = top_level; level >= 1; --level) {
        const unsigned idx = radixIndex(va, level);
        const Entry &entry = node->slots[idx];
        const bool is_leaf = entry.kind == Entry::Kind::Leaf;
        if (steps)
            steps->push_back({node->entryAddr(idx), level, is_leaf});
        if (entry.kind == Entry::Kind::None)
            return {};
        if (is_leaf) {
            PageSize size = PageSize::Page4K;
            if (level == 2)
                size = PageSize::Page2M;
            else if (level == 3)
                size = PageSize::Page1G;
            else if (level >= 4)
                panic("radix: leaf at PGD/P4D level is not supported");
            return {entry.leaf_pa, size, true};
        }
        node = entry.child.get();
    }
    return {};
}

Addr
RadixPageTable::root() const
{
    return root_->frame;
}

} // namespace necpt
