/**
 * @file
 * The SIMD kernels: the tag-row scans behind every AssocCache probe
 * — the data caches' 32-bit rows on every simulated memory access, and
 * the TLBs' and walk caches' 64-bit rows on every translation — and
 * the key-range sweep that drops a shootdown's range from a 64-bit
 * array.
 *
 * findKeyScalar and dropKeyRangeScalar are the reference loops and are
 * always compiled; findKey and dropKeyRange give the same result on
 * every input, so simulation results never depend on the host ISA.
 * AVX2 is used when the compiler targets it (`__AVX2__`); nothing here
 * emits runtime dispatch — the build decides once.
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

/**
 * Clear every tag t of row[0, n) with `t - lo <= width` (unsigned), the
 * keys of [lo, lo + width], to the all-ones tag. While lo + width stays
 * below the all-ones key, an all-ones (invalid) tag is never in range.
 * @return number of tags cleared.
 */
inline int
dropKeyRangeScalar(std::uint64_t *row, int n, std::uint64_t lo,
                   std::uint64_t width)
{
    int count = 0;
    for (int i = 0; i < n; ++i) {
        const bool hit = row[i] - lo <= width;
        row[i] = hit ? ~std::uint64_t{0} : row[i];
        count += hit;
    }
    return count;
}

/**
 * dropKeyRangeScalar, four tags per 256-bit compare where AVX2 is on.
 * AVX2 compares 64-bit lanes only as signed, so both sides of the
 * unsigned `t - lo > width` get their sign bit flipped first.
 */
inline int
dropKeyRange(std::uint64_t *row, int n, std::uint64_t lo,
             std::uint64_t width)
{
#if NECPT_SIMD_AVX2
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(std::uint64_t{1} << 63));
    const __m256i base = _mm256_set1_epi64x(static_cast<long long>(lo));
    const __m256i limit = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(width)), sign);
    const __m256d empty = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    int count = 0;
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        auto *at = reinterpret_cast<__m256i *>(row + i);
        const __m256i tags = _mm256_loadu_si256(at);
        const __m256i out = _mm256_cmpgt_epi64(
            _mm256_xor_si256(_mm256_sub_epi64(tags, base), sign), limit);
        const unsigned kept = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(out)));
        // A shootdown's range misses most rows: leave those lines
        // clean rather than write back what they hold.
        if (kept == 0xF)
            continue;
        // Lanes out of range keep their tag; the rest turn all-ones.
        _mm256_storeu_si256(
            at, _mm256_castpd_si256(_mm256_blendv_pd(
                    empty, _mm256_castsi256_pd(tags),
                    _mm256_castsi256_pd(out))));
        count += 4 - __builtin_popcount(kept);
    }
    return count + dropKeyRangeScalar(row + i, n - i, lo, width);
#else
    return dropKeyRangeScalar(row, n, lo, width);
#endif
}

} // namespace simd
} // namespace necpt

#endif // NECPT_COMMON_SIMD_HH
