/**
 * @file
 * The CRC hash functions used by hashed and elastic cuckoo page tables.
 *
 * Table 2 of the paper specifies CRC hash functions with a 2-cycle latency.
 * Each ECPT way uses an independently seeded member of the family so that a
 * key colliding in one way is (practically) independent in the others —
 * the property cuckoo hashing relies on.
 *
 * The CRC-64/ECMA evaluation is slice-by-8: the classic byte-at-a-time
 * loop carries an 8-long dependency chain through the crc register, and
 * at ~10 hash calls per simulated access it was the single hottest leaf
 * in the profile. Slicing looks all eight message bytes up in eight
 * independent tables and XORs — same polynomial algebra, no carried
 * dependency, so the d ways a cuckoo table hashes in one pass
 * (hashWays) overlap in the host pipeline.
 */

#ifndef NECPT_COMMON_HASH_HH
#define NECPT_COMMON_HASH_HH

#include <cstdint>

#include "common/types.hh"

namespace necpt
{

namespace detail
{
/** Slice-by-8 CRC-64/ECMA-182 tables. tables[0] is the classic
 *  byte-at-a-time table; tables[k][b] advances tables[k-1][b] by one
 *  zero byte, so a message byte consumed k steps before the end is
 *  looked up in tables[k]. */
struct Crc64Tables
{
    std::uint64_t t[8][256];
    Crc64Tables();
};
extern const Crc64Tables crc64_tables;
} // namespace detail

/**
 * CRC-64/ECMA polynomial evaluation of an 8-byte message (init and
 * final XOR all-ones). Bit-identical to the historical byte-at-a-time
 * loop — the golden tests pin its values.
 *
 * Derivation: with init c0 = ~0 and the message's least-significant
 * byte consumed first, fold both into d = ~byteswap(value); byte j of
 * d then contributes tables[j][byte] to the pre-inversion remainder.
 */
inline std::uint64_t
crc64(std::uint64_t value)
{
    const std::uint64_t d = ~__builtin_bswap64(value);
    const auto &t = detail::crc64_tables.t;
    std::uint64_t acc = t[0][d & 0xFF];
    acc ^= t[1][(d >> 8) & 0xFF];
    acc ^= t[2][(d >> 16) & 0xFF];
    acc ^= t[3][(d >> 24) & 0xFF];
    acc ^= t[4][(d >> 32) & 0xFF];
    acc ^= t[5][(d >> 40) & 0xFF];
    acc ^= t[6][(d >> 48) & 0xFF];
    acc ^= t[7][d >> 56];
    return ~acc;
}

/**
 * One seeded CRC hash function.
 *
 * A HashFunction maps a virtual page number to a table slot index; the
 * caller reduces modulo its table size. Seeding XORs and multiplies the
 * input with splitmix-derived constants before the CRC pass, giving
 * independent functions per (page-size table, way).
 */
class HashFunction
{
  public:
    HashFunction() : preXor(0), mult(0x9E3779B97F4A7C15ULL) {}

    /** Build the function with the given @p seed. */
    explicit HashFunction(std::uint64_t seed);

    /** Hash a (page-number) key to a 64-bit value. */
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return crc64((key ^ preXor) * mult);
    }

    /** Hardware latency of the hash unit (Table 2: 2 cycles). */
    static constexpr Cycles latency = 2;

  private:
    std::uint64_t preXor;
    std::uint64_t mult;
};

/**
 * The d-way hash pass of a cuckoo table: the raw hash of @p key under
 * each of its @p d functions, written to @p out (at least @p d
 * entries). The hardware computes the d hashes in parallel (Figure 4).
 */
inline void
hashWays(const HashFunction *fns, int d, std::uint64_t key,
         std::uint64_t *out)
{
    for (int w = 0; w < d; ++w)
        out[w] = fns[w](key);
}

} // namespace necpt

#endif // NECPT_COMMON_HASH_HH
