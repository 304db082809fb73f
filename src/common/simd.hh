/**
 * @file
 * The SIMD kernels: the tag-row scans behind every AssocCache probe
 * — the data caches' 32-bit rows on every simulated memory access, and
 * the TLBs' and walk caches' 64-bit rows on every translation.
 *
 * findKeyScalar is the reference loop and is always compiled; findKey
 * returns the same index on every input, so simulation results never
 * depend on the host ISA. AVX2 is used when the compiler targets it
 * (`__AVX2__`); nothing here emits runtime dispatch — the build decides
 * once.
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

/** Lowest index i in [0, n) with row[i] == key, or -1. */
template <typename T>
inline int
findKeyScalar(const T *row, int n, T key)
{
    for (int i = 0; i < n; ++i)
        if (row[i] == key)
            return i;
    return -1;
}

/** findKeyScalar, four keys per 256-bit compare where AVX2 is on. */
inline int
findKey(const std::uint64_t *row, int n, std::uint64_t key)
{
#if NECPT_SIMD_AVX2
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(key));
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i keys = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + i));
        const unsigned eq = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(keys, needle))));
        if (eq)
            return i + __builtin_ctz(eq);
    }
    const int tail = findKeyScalar(row + i, n - i, key);
    return tail < 0 ? -1 : i + tail;
#else
    return findKeyScalar(row, n, key);
#endif
}

/** findKeyScalar, eight keys per 256-bit compare where AVX2 is on. */
inline int
findKey(const std::uint32_t *row, int n, std::uint32_t key)
{
#if NECPT_SIMD_AVX2
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(key));
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i keys = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + i));
        const unsigned eq = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(keys, needle))));
        if (eq)
            return i + __builtin_ctz(eq);
    }
    const int tail = findKeyScalar(row + i, n - i, key);
    return tail < 0 ? -1 : i + tail;
#else
    return findKeyScalar(row, n, key);
#endif
}

} // namespace simd
} // namespace necpt

#endif // NECPT_COMMON_SIMD_HH
