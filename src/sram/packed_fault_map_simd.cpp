/**
 * @file
 * AVX2 packing kernel for PackedFaultMap. This translation unit is the
 * only sram code compiled with -mavx2 (see src/sram/CMakeLists.txt);
 * its one caller, faultMask(), checks the CPU first so the kernel
 * never executes on hardware without AVX2.
 *
 * The kernel evaluates the SplitMix64-finalizer cell hash four lanes
 * at a time and compares each hash against the threshold of its
 * cell's stratum (both thresholds, selected by the defect mask, on
 * clustered maps; one on i.i.d. maps). Everything here is exact
 * 64-bit integer arithmetic, so the packed bits are bitwise-identical
 * to the scalar path — SIMD is purely a throughput choice, never a
 * numerics one (DESIGN.md §12).
 */

#include "sram/packed_fault_map.hpp"

#if defined(VBOOST_HAVE_AVX2)

#include <immintrin.h>

namespace vboost::sram {

namespace {

/** 64-bit lane-wise multiply low (AVX2 has no mullo_epi64). */
inline __m256i
mullo64(__m256i a, __m256i b)
{
    // lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32), mod 2^64.
    const __m256i ahi = _mm256_srli_epi64(a, 32);
    const __m256i bhi = _mm256_srli_epi64(b, 32);
    const __m256i ll = _mm256_mul_epu32(a, b);
    const __m256i lh = _mm256_mul_epu32(a, bhi);
    const __m256i hl = _mm256_mul_epu32(ahi, b);
    const __m256i hi = _mm256_add_epi64(lh, hl);
    return _mm256_add_epi64(ll, _mm256_slli_epi64(hi, 32));
}

/** Lane-wise SplitMix64 finalizer (matches detail::mix64). */
inline __m256i
mix64x4(__m256i z)
{
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
    z = mullo64(z, _mm256_set1_epi64x(
                       static_cast<long long>(0xbf58476d1ce4e5b9ull)));
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
    z = mullo64(z, _mm256_set1_epi64x(
                       static_cast<long long>(0x94d049bb133111ebull)));
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/**
 * Hash 64 consecutive cells four lanes at a time and return the
 * below-threshold masks: `lo` against thr_lo and, with kStrata, `hi`
 * against thr_hi from the same hash.
 */
template <bool kStrata>
inline void
belowMasks(std::uint64_t stream_key, std::uint64_t thr_hi,
           std::uint64_t thr_lo, std::uint64_t cell, std::uint64_t &hi,
           std::uint64_t &lo)
{
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    const __m256i key = _mm256_set1_epi64x(
        static_cast<long long>(stream_key));
    // AVX2 compares are signed; biasing both sides by 2^63 turns the
    // unsigned hash < threshold test into a signed one.
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    const __m256i thi = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(thr_hi)), bias);
    const __m256i tlo = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(thr_lo)), bias);
    // Consecutive cells differ by kGolden in the pre-mix counter, so
    // the per-lane counters advance by addition instead of a 64-bit
    // multiply per lane.
    const std::uint64_t c0 = cell * kGolden;
    __m256i ctr = _mm256_set_epi64x(
        static_cast<long long>(c0 + 3 * kGolden),
        static_cast<long long>(c0 + 2 * kGolden),
        static_cast<long long>(c0 + kGolden),
        static_cast<long long>(c0));
    const __m256i step = _mm256_set1_epi64x(
        static_cast<long long>(4 * kGolden));

    hi = 0;
    lo = 0;
    for (int block = 0; block < 16; ++block) {
        const __m256i hash = _mm256_xor_si256(
            mix64x4(_mm256_xor_si256(key, ctr)), bias);
        const int lo4 = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpgt_epi64(tlo, hash)));
        lo |= static_cast<std::uint64_t>(lo4) << (4 * block);
        if constexpr (kStrata) {
            const int hi4 = _mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(thi, hash)));
            hi |= static_cast<std::uint64_t>(hi4) << (4 * block);
        }
        ctr = _mm256_add_epi64(ctr, step);
    }
}

} // namespace

std::uint64_t
packMask64Avx2(std::uint64_t stream_key, std::uint64_t thr_hi,
               std::uint64_t thr_lo, std::uint64_t defect,
               std::uint64_t cell)
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if (thr_hi == thr_lo) {
        // One stratum (i.i.d. maps): the defect bits cannot matter.
        belowMasks<false>(stream_key, thr_hi, thr_lo, cell, hi, lo);
        return lo;
    }
    belowMasks<true>(stream_key, thr_hi, thr_lo, cell, hi, lo);
    return (hi & defect) | (lo & ~defect);
}

} // namespace vboost::sram

#else // !VBOOST_HAVE_AVX2

#include "common/logging.hpp"

namespace vboost::sram {

std::uint64_t
packMask64Avx2(std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t)
{
    fatal("packMask64Avx2: built without AVX2 support");
}

} // namespace vboost::sram

#endif // VBOOST_HAVE_AVX2
