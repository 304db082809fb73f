#include "pt/ecpt.hh"

#include <unordered_set>

#include "common/error.hh"
#include "common/log.hh"

namespace necpt
{

EcptPageTable::EcptPageTable(RegionAllocator &allocator,
                             const EcptConfig &config)
    : cfg(config)
{
    if (cfg.ways < 2 || cfg.ways > CwtDescriptor::max_ways)
        throw ConfigError(strfmt(
            "ECPT ways = %d: must be 2 to %d, the ways a CWT "
            "descriptor's way field can name", cfg.ways,
            CwtDescriptor::max_ways));
    std::uint64_t seed = cfg.seed;
    for (int s = 0; s < num_page_sizes; ++s) {
        const auto size = all_page_sizes[s];
        CuckooConfig table_cfg;
        table_cfg.ways = cfg.ways;
        table_cfg.initial_slots = cfg.initial_slots[s];
        table_cfg.slot_bytes = line_bytes;
        table_cfg.resize_threshold = cfg.resize_threshold;
        table_cfg.seed = splitmix64(seed);
        tables[s] = std::make_unique<ElasticCuckooTable<PteBlock>>(
            allocator, table_cfg);

        // The guest has no PTE-level CWT; the host has one only when
        // the design asks for it (Section 4.2).
        // Each CWT takes one draw from the seed stream: the later
        // tables' hash seeds, and so every ECPT layout, depend on it.
        if (size != PageSize::Page4K || cfg.has_pte_cwt) {
            (void)splitmix64(seed);
            cwts[s] = std::make_unique<CuckooWalkTable>(allocator, size);
        }

        // Keep CWT way bits coherent with cuckoo displacements and
        // elastic-resize migrations.
        move_notifiers[s] = MoveNotifier{this, size};
        tables[s]->setMoveCallback(move_notifiers[s]);
    }
}

void
EcptPageTable::noteBlockPlacement(PageSize size, std::uint64_t key,
                                  const PteBlock &block, int way)
{
    CuckooWalkTable *cwt = cwtOf(size);
    if (!cwt)
        return;
    const Addr block_base = (key << 3) << pageShift(size);
    // A PTE-CWT section is the whole 8-page block: one write covers it.
    if (size == PageSize::Page4K) {
        if (!block.empty())
            cwt->setPresent(block_base, way);
        return;
    }
    // PMD/PUD-CWT sections cover one page each: refresh every mapped
    // page's section.
    for (int j = 0; j < PteBlock::entries; ++j) {
        if (block.pte[j].present()) {
            const Addr va = block_base
                + (static_cast<Addr>(j) << pageShift(size));
            cwt->setPresent(va, way);
        }
    }
}

void
EcptPageTable::map(Addr va, Addr pa, PageSize size)
{
    auto frame = [pa] { return pa; };
    mapBlock(va, 1, size, frame);
}

bool
EcptPageTable::opensLargerCwtChunk(Addr va, PageSize size) const
{
    for (int larger = static_cast<int>(size) + 1; larger < num_page_sizes;
         ++larger) {
        if (const CuckooWalkTable *cwt = cwts[larger].get();
            cwt && !cwt->query(va))
            return true;
    }
    return false;
}

void
EcptPageTable::mapBlock(Addr va, int pages, PageSize size,
                        FrameSource next_frame)
{
    NECPT_ASSERT(pageOffset(va, size) == 0);
    const int first = static_cast<int>(pageNumber(va, size) & 0x7);
    NECPT_ASSERT(pages >= 1 && first + pages <= PteBlock::entries);
    // Mapped page by page, a block's pages share one section at every
    // larger CWT level, and a chunk that section opens is carved from
    // region space right after the first page's write. Map that page
    // alone, so a resize later in the block cannot take the region
    // first.
    if (pages > 1 && opensLargerCwtChunk(va, size)) {
        mapBlock(va, 1, size, next_frame);
        mapBlock(va + pageBytes(size), pages - 1, size, next_frame);
        return;
    }
    std::array<Addr, PteBlock::entries> frames{};
    for (int i = 0; i < pages; ++i) {
        frames[i] = next_frame();
        NECPT_ASSERT(pageOffset(frames[i], size) == 0);
    }
    std::uint32_t fresh = 0;
    const auto slot = tableOf(size).upsert(
        blockKey(va, size),
        [&](PteBlock &block) {
            for (int i = 0; i < pages; ++i) {
                Pte &pte = block.pte[first + i];
                fresh += !pte.present();
                pte = Pte::make(frames[i]);
            }
        },
        pages);
    mapped[static_cast<int>(size)] += fresh;

    // CWT maintenance: present bits at this size. A block the upsert
    // (re)placed went through noteBlockPlacement with these pages in
    // it already. A block updated where it sat needs their sections
    // written, except at the PTE level, whose section is the whole
    // block and already names its way.
    if (CuckooWalkTable *cwt = cwtOf(size);
        cwt && !slot.placed && size != PageSize::Page4K) {
        for (int i = 0; i < pages; ++i)
            cwt->setPresent(va + static_cast<Addr>(i) * pageBytes(size),
                            slot.way);
    }
    // ...and which-smaller-size bits at every larger level (Figure
    // 14's pruning depends on these), where the block lies in one
    // section. Counted per fresh page so the unmap path can downgrade
    // the bits exactly; a re-map of an already-mapped page changes
    // neither the bit nor the count.
    if (fresh) {
        for (int larger = static_cast<int>(size) + 1;
             larger < num_page_sizes; ++larger) {
            if (CuckooWalkTable *cwt = cwts[larger].get())
                cwt->addSmaller(va, size, fresh);
        }
    }
}

void
EcptPageTable::unmap(Addr va, PageSize size)
{
    auto &table = tableOf(size);
    const auto key = blockKey(va, size);
    const int sub = static_cast<int>(pageNumber(va, size) & 0x7);
    auto hit = table.find(key);
    if (!hit || !hit.value->pte[sub].present())
        return;
    hit.value->pte[sub].clear();
    --mapped[static_cast<int>(size)];
    const bool block_empty = hit.value->empty();
    if (block_empty)
        table.erase(key);
    if (CuckooWalkTable *cwt = cwtOf(size)) {
        // PMD/PUD-CWT sections cover exactly one page, so the present
        // bit dies with the page; a PTE-CWT section is the whole
        // 8-page block and stays present until the block empties.
        if (size != PageSize::Page4K || block_empty)
            cwt->clearPresent(va);
    }
    // Downgrade the has-smaller bits at every larger level once the
    // last size-`size` page in their section is gone.
    for (int larger = static_cast<int>(size) + 1;
         larger < num_page_sizes; ++larger) {
        if (CuckooWalkTable *cwt = cwts[larger].get())
            cwt->removeSmaller(va, size);
    }
}

bool
EcptPageTable::writeProtect(Addr va, PageSize size)
{
    auto &table = tableOf(size);
    auto hit = table.find(blockKey(va, size));
    if (!hit)
        return false;
    Pte &pte = hit.value->pte[pageNumber(va, size) & 0x7];
    if (!pte.present())
        return false;
    pte.writeProtect();
    return true;
}

namespace
{

/** The size-@p size page of @p va in @p hit, its block's find. */
EcptPageTable::SizedResult
sizedHit(const ElasticCuckooTable<PteBlock>::FindResult &hit, Addr va,
         PageSize size)
{
    if (!hit)
        return {};
    const Pte &pte = hit.value->pte[pageNumber(va, size) & 0x7];
    if (!pte.present())
        return {};
    return {{pte.frameBase(), size, true}, hit.way, hit.slot_addr};
}

} // namespace

EcptPageTable::SizedResult
EcptPageTable::lookupSized(Addr va, PageSize size) const
{
    auto &table = const_cast<ElasticCuckooTable<PteBlock> &>(tableOf(size));
    return sizedHit(table.find(blockKey(va, size)), va, size);
}

Translation
EcptPageTable::lookup(Addr va) const
{
    constexpr PageSize huge = PageSize::Page2M;
    const auto &table_2m = tableOf(huge);
    const bool has_1g = tableOf(PageSize::Page1G).size() != 0;
    if (table_2m.size() == 0 && !has_1g)
        return lookupSized(va, PageSize::Page4K).translation;
    // Read the PMD-CWT descriptor first, as the walker does (Section
    // 3.2), and probe the one table it names: at 2MB, the one way.
    // Page sizes never overlap, and auditInvariants holds the
    // descriptor exact both ways (a mapped page's section names its
    // way or advertises it; a present section holds a page in its
    // way), so no other table can hold @p va.
    const auto d = cwtOf(huge)->query(va);
    if (d && d->present) {
        auto &table = const_cast<ElasticCuckooTable<PteBlock> &>(table_2m);
        return sizedHit(table.findInWay(blockKey(va, huge), d->way), va,
                        huge)
            .translation;
    }
    if (d && d->smaller_4k)
        return lookupSized(va, PageSize::Page4K).translation;
    if (has_1g)
        return lookupSized(va, PageSize::Page1G).translation;
    return {};
}

std::uint32_t
EcptPageTable::mappedMask(Addr va, int pages) const
{
    constexpr PageSize base = PageSize::Page4K;
    NECPT_ASSERT(pageOffset(va, base) == 0);
    const int first = static_cast<int>(pageNumber(va, base) & 0x7);
    NECPT_ASSERT(pages >= 1 && first + pages <= PteBlock::entries);
    const std::uint32_t all = (1u << pages) - 1;
    std::uint32_t mask = 0;
    auto &table = const_cast<ElasticCuckooTable<PteBlock> &>(tableOf(base));
    if (const auto hit = table.find(blockKey(va, base))) {
        for (int i = 0; i < pages; ++i)
            mask |= static_cast<std::uint32_t>(
                        hit.value->pte[first + i].present())
                << i;
    }
    if (mask == all)
        return mask;
    for (const PageSize size : {PageSize::Page2M, PageSize::Page1G})
        if (lookupSized(va, size).translation.valid)
            return all;
    return mask;
}

void
EcptPageTable::setFaultPlan(FaultPlan *plan)
{
    for (int s = 0; s < num_page_sizes; ++s)
        tables[s]->setFaultPlan(plan);
}

void
EcptPageTable::setTracer(TraceBuffer *tracer)
{
    for (int s = 0; s < num_page_sizes; ++s)
        tables[s]->setTracer(tracer);
}

void
EcptPageTable::registerMetrics(MetricsRegistry &reg,
                               const std::string &prefix) const
{
    for (PageSize size : all_page_sizes) {
        const ElasticCuckooTable<PteBlock> *t = &tableOf(size);
        const std::string p =
            prefix + "cuckoo." + pageLevelName(size) + ".";
        reg.addCounter(p + "kicks", [t] { return t->rehashMoves(); },
                       "cuckoo displacements (Section 4.4)");
        reg.addCounter(p + "resizes", [t] { return t->resizeCount(); });
        reg.addCounter(p + "resize_moves",
                       [t] { return t->resizeMoves(); });
        reg.addCounter(p + "entries", [t] { return t->size(); });
        reg.addValue(p + "load_factor",
                     [t] { return t->loadFactor(); });
    }
    reg.addCounter(prefix + "cuckoo.kicks", [this] {
        std::uint64_t total = 0;
        for (PageSize size : all_page_sizes)
            total += tableOf(size).rehashMoves();
        return total;
    }, "total cuckoo displacements across the per-size tables");
}

void
EcptPageTable::auditInvariants(const std::string &who) const
{
    for (int s = 0; s < num_page_sizes; ++s) {
        const auto size = all_page_sizes[s];
        const auto &table = *tables[s];
        if (table.homelessCount())
            throw InvariantViolation(strfmt(
                "%s %s-ECPT: %zu homeless entries survived settle()",
                who.c_str(), pageSizeName(size),
                table.homelessCount()));

        const CuckooWalkTable *cwt = cwts[s].get();
        std::unordered_set<std::uint64_t> live_keys;
        table.forEach([&](std::uint64_t key, const PteBlock &block,
                          int way, bool in_old) {
            if (!in_old) {
                live_keys.insert(key);
            } else if (live_keys.count(key)) {
                throw InvariantViolation(strfmt(
                    "%s %s-ECPT: key 0x%llx resident in both "
                    "generations", who.c_str(), pageSizeName(size),
                    (unsigned long long)key));
            }
            const Addr block_base = (key << 3) << pageShift(size);
            for (int j = 0; j < PteBlock::entries; ++j) {
                if (!block.pte[j].present())
                    continue;
                const Addr va = block_base
                    + (static_cast<Addr>(j) << pageShift(size));
                if (cwt) {
                    const auto d = cwt->query(va);
                    if (!d || !d->present)
                        throw InvariantViolation(strfmt(
                            "%s %s-CWT: stale descriptor — VA 0x%llx is "
                            "mapped (key 0x%llx way %d) but the CWT has "
                            "no present bit", who.c_str(),
                            pageSizeName(size), (unsigned long long)va,
                            (unsigned long long)key, way));
                    if (d->way != way)
                        throw InvariantViolation(strfmt(
                            "%s %s-CWT: stale way bits — VA 0x%llx lives "
                            "in way %d but the CWT says way %d",
                            who.c_str(), pageSizeName(size),
                            (unsigned long long)va, way, (int)d->way));
                }
                // Every larger level must advertise this page via its
                // has-smaller bit (and cannot itself be present — the
                // mappings would overlap). The unmap downgrade keeps
                // these exact; a stale bit here means a missed
                // removeSmaller.
                for (int larger = s + 1; larger < num_page_sizes;
                     ++larger) {
                    const CuckooWalkTable *up = cwts[larger].get();
                    if (!up)
                        continue;
                    const auto d = up->query(va);
                    const bool advertised = d && !d->present
                        && (size == PageSize::Page4K ? d->smaller_4k
                                                     : d->smaller_2m);
                    if (!advertised)
                        throw InvariantViolation(strfmt(
                            "%s %s-CWT: missing has-smaller bit for "
                            "%s-mapped VA 0x%llx", who.c_str(),
                            pageLevelName(all_page_sizes[larger]),
                            pageSizeName(size),
                            (unsigned long long)va));
                }
            }
        });
    }
    // The converse at the PMD and PUD levels: every present section
    // holds a resident page in the way it names. A stale present bit
    // would send lookup() to the 2MB table and hide the 4KB pages
    // mapped below it.
    for (const PageSize size : {PageSize::Page2M, PageSize::Page1G}) {
        cwtOf(size)->forEachPresent([&](Addr va, int way) {
            const SizedResult r = lookupSized(va, size);
            if (!r.translation.valid || r.way != way)
                throw InvariantViolation(strfmt(
                    "%s %s-CWT: stale present bit — VA 0x%llx names way "
                    "%d but the %s-ECPT %s", who.c_str(),
                    pageLevelName(size), (unsigned long long)va, way,
                    pageSizeName(size),
                    r.translation.valid ? "holds it in another way"
                                        : "does not map it"));
        });
    }
}

std::uint64_t
EcptPageTable::structureBytes() const
{
    std::uint64_t bytes = 0;
    for (int s = 0; s < num_page_sizes; ++s) {
        bytes += tables[s]->structureBytes();
        if (cwts[s])
            bytes += cwts[s]->structureBytes();
    }
    return bytes;
}

std::uint64_t
EcptPageTable::cwtBytes() const
{
    std::uint64_t bytes = 0;
    for (int s = 0; s < num_page_sizes; ++s)
        if (cwts[s])
            bytes += cwts[s]->structureBytes();
    return bytes;
}

} // namespace necpt
