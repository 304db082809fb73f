#include "common/hash.hh"

#include "common/rng.hh"

namespace necpt
{

namespace detail
{

Crc64Tables::Crc64Tables()
{
    constexpr std::uint64_t poly = 0x42F0E1EBA9EA3693ULL;
    for (unsigned i = 0; i < 256; ++i) {
        std::uint64_t crc = static_cast<std::uint64_t>(i) << 56;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & (1ULL << 63)) ? (crc << 1) ^ poly : crc << 1;
        t[0][i] = crc;
    }
    // t[k][b]: run b through the classic table, then k zero bytes.
    for (int k = 1; k < 8; ++k) {
        for (unsigned i = 0; i < 256; ++i) {
            const std::uint64_t prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][prev >> 56];
        }
    }
}

const Crc64Tables crc64_tables;

} // namespace detail

HashFunction::HashFunction(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    preXor = splitmix64(sm);
    mult = splitmix64(sm) | 1; // multiplier must be odd
}

} // namespace necpt
