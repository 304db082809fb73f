/**
 * @file
 * The one SIMD kernel: the packed-tag cache-way scan behind
 * SetAssocCache::findWay, which every simulated memory access runs.
 *
 * Its scalar fallback is bit-identical to the vector path, so
 * simulation results never depend on the host ISA. AVX2 is used when
 * the compiler targets it (`__AVX2__`); nothing here emits runtime
 * dispatch — the build decides once.
 */

#ifndef NECPT_COMMON_SIMD_HH
#define NECPT_COMMON_SIMD_HH

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define NECPT_SIMD_AVX2 1
#else
#define NECPT_SIMD_AVX2 0
#endif

namespace necpt
{
namespace simd
{

/**
 * Lowest index i in [0, n) with (meta[i] & valid_bit) and
 * tags[i] == tag, or -1. The layout matches SetAssocCache: a
 * contiguous uint64 tag row and a parallel meta byte row whose bit 7
 * is the valid flag.
 */
inline int
findTagScalar(const std::uint64_t *tags, const std::uint8_t *meta,
              int n, std::uint64_t tag, std::uint8_t valid_bit)
{
    for (int i = 0; i < n; ++i)
        if ((meta[i] & valid_bit) && tags[i] == tag)
            return i;
    return -1;
}

inline int
findTag(const std::uint64_t *tags, const std::uint8_t *meta, int n,
        std::uint64_t tag, std::uint8_t valid_bit = 0x80)
{
#if NECPT_SIMD_AVX2
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(tag));
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + i));
        unsigned eq = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(row, needle))));
        if (!eq)
            continue;
        // Fold the four meta valid bits into the low lane bits. assoc
        // rows are at least 4-aligned in count here, so the 4-byte
        // load never crosses the row end.
        unsigned vm = 0;
        for (int b = 0; b < 4; ++b)
            vm |= ((meta[i + b] & valid_bit) ? 1u : 0u) << b;
        eq &= vm;
        if (eq)
            return i + __builtin_ctz(eq);
    }
    for (; i < n; ++i)
        if ((meta[i] & valid_bit) && tags[i] == tag)
            return i;
    return -1;
#else
    return findTagScalar(tags, meta, n, tag, valid_bit);
#endif
}

} // namespace simd
} // namespace necpt

#endif // NECPT_COMMON_SIMD_HH
