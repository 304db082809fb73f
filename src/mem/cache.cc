#include "mem/cache.hh"

#include "common/log.hh"

namespace necpt
{

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cfg(config)
{
    NECPT_ASSERT(cfg.size_bytes % (line_bytes * cfg.assoc) == 0);
    sets = cfg.size_bytes / (line_bytes * cfg.assoc);
    NECPT_ASSERT(isPowerOf2(sets));
    // Age ranks live in 7 bits; every configuration in Table 2 is <= 16-way.
    NECPT_ASSERT(cfg.assoc >= 1 && cfg.assoc <= 127);
    tags.assign(sets * cfg.assoc, 0);
    meta.resize(sets * cfg.assoc);
    // Seed each set's ages with the identity permutation (all invalid).
    // First fills then claim ways in scan order, exactly as before.
    for (std::uint64_t s = 0; s < sets; ++s)
        for (int i = 0; i < cfg.assoc; ++i)
            meta[s * cfg.assoc + i] = static_cast<std::uint8_t>(i);
}

void
SetAssocCache::fill(Addr addr)
{
    const Addr line = lineAddr(addr);
    const auto set = setIndex(line);
    const auto tag = tagOf(line);
    // Already present: just refresh recency.
    const int way = findWay(set, tag);
    if (way >= 0) {
        touch(set, way);
        return;
    }
    // Pick the first invalid way, else the LRU (max-age) victim. Ages are
    // a permutation per set, so the max among an all-valid set is unique
    // — the same way the old unique-tick minimum selected.
    std::uint8_t *meta_base = &meta[set * cfg.assoc];
    int victim = -1;
    for (int i = 0; i < cfg.assoc; ++i) {
        if (!(meta_base[i] & valid_bit)) {
            victim = i;
            break;
        }
    }
    if (victim < 0) {
        std::uint8_t oldest = 0;
        for (int i = 0; i < cfg.assoc; ++i) {
            const std::uint8_t a = meta_base[i] & age_mask;
            if (a >= oldest) {
                oldest = a;
                victim = i;
            }
        }
    }
    tags[set * cfg.assoc + victim] = tag;
    meta_base[victim] |= valid_bit;
    touch(set, victim);
}

} // namespace necpt
