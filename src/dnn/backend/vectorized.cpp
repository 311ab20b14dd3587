/**
 * @file
 * The AVX2 "vectorized" backend (DESIGN.md §12). Bitwise-identical to
 * the reference backend on finite inputs by construction:
 *
 *  - GEMM keeps the reference's per-element accumulation order
 *    (ascending k, one product added at a time). SIMD runs 8/16
 *    output columns in parallel, which reorders nothing within any
 *    single element's chain. Multiplies and adds stay separate
 *    instructions (no FMA — fused rounding differs); the TU is built
 *    with -ffp-contract=off as a backstop.
 *  - The reference's zero-skip (`if (aik == 0) continue`) is dropped
 *    rather than emulated: adding the skipped +/-0.0 products is an
 *    identity on every accumulator chain seeded from +0.0, because
 *    round-to-nearest never yields -0.0 from a +0.0 start.
 *    Accumulating calls replay the reference chain for the rare
 *    accumulator seeded with -0.0 (detail::replayZeroSkipChains), the
 *    one seed the dropped skip is observable on.
 *  - im2col is pure element copies (memcpy + zero fill), so any
 *    implementation is bitwise-identical.
 *  - The transposed GEMMs of the backward pass transpose an operand
 *    (pure moves) and run the same GEMM, so every element keeps its
 *    ascending-k chain; gemmTransB's dot products are chains from
 *    +0.0 added into C once, as in the reference.
 *  - MaxPool/ReLU use MAXPS, which returns its second operand on ties
 *    and on NaN — exactly the reference's strict `>` comparisons, so
 *    the pool folds each window in the reference's (di, dj) order.
 *    The training variants make the same compare explicit to record
 *    the kept position (pool) or the mask bit (ReLU).
 *  - col2im adds row segments in the reference's (c, ki, kj) row
 *    order; within one row no two adds hit the same dx element.
 *  - Fault application precomputes bit-packed fault masks
 *    (sram::PackedFaultMap, same counter-based hash, exact integer
 *    arithmetic) and consumes RNG once per faulty cell in ascending
 *    visit order — the exact draw sequence of the scalar loop.
 *  - Dequantize multiplies by the exact power-of-two resolution
 *    2^-frac instead of dividing by 2^frac: both are exact (no int16
 *    word decodes to a subnormal), hence bitwise-equal.
 *
 * This translation unit is the only dnn code compiled with -mavx2;
 * the registry only exposes the backend after a runtime CPU check.
 */

#include "dnn/backend/impl.hpp"

#if defined(VBOOST_HAVE_AVX2)

#include <bit>
#include <cstring>
#include <immintrin.h>

#include "sram/packed_fault_map.hpp"

namespace vboost::dnn {

namespace {

// ------------------------------------------------------------- GEMM

/**
 * Micro-kernel: one row of C over a 16-column strip, accumulating
 * A[i, k0:k0+kb) * B in ascending-k order. C is loaded, accumulated
 * in registers and stored back, so K blocking preserves each
 * element's left-to-right addition chain.
 */
inline void
micro1x16(const float *arow, const float *b, float *crow, int kb, int n)
{
    __m256 acc0 = _mm256_loadu_ps(crow);
    __m256 acc1 = _mm256_loadu_ps(crow + 8);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n) {
        const __m256 av = _mm256_set1_ps(arow[kk]);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
    }
    _mm256_storeu_ps(crow, acc0);
    _mm256_storeu_ps(crow + 8, acc1);
}

/** As micro1x16 for an 8-column strip. */
inline void
micro1x8(const float *arow, const float *b, float *crow, int kb, int n)
{
    __m256 acc = _mm256_loadu_ps(crow);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n)
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(arow[kk]),
                               _mm256_loadu_ps(bp)));
    _mm256_storeu_ps(crow, acc);
}

/**
 * 4x16 register-tiled micro-kernel: four C rows x two ymm columns,
 * eight resident accumulators. Same per-element chain as micro1x16.
 */
inline void
micro4x16(const float *a0, const float *a1, const float *a2,
          const float *a3, const float *b, float *c0, float *c1,
          float *c2, float *c3, int kb, int n)
{
    __m256 r00 = _mm256_loadu_ps(c0), r01 = _mm256_loadu_ps(c0 + 8);
    __m256 r10 = _mm256_loadu_ps(c1), r11 = _mm256_loadu_ps(c1 + 8);
    __m256 r20 = _mm256_loadu_ps(c2), r21 = _mm256_loadu_ps(c2 + 8);
    __m256 r30 = _mm256_loadu_ps(c3), r31 = _mm256_loadu_ps(c3 + 8);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        r00 = _mm256_add_ps(r00, _mm256_mul_ps(av, b0));
        r01 = _mm256_add_ps(r01, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a1[kk]);
        r10 = _mm256_add_ps(r10, _mm256_mul_ps(av, b0));
        r11 = _mm256_add_ps(r11, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a2[kk]);
        r20 = _mm256_add_ps(r20, _mm256_mul_ps(av, b0));
        r21 = _mm256_add_ps(r21, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a3[kk]);
        r30 = _mm256_add_ps(r30, _mm256_mul_ps(av, b0));
        r31 = _mm256_add_ps(r31, _mm256_mul_ps(av, b1));
    }
    _mm256_storeu_ps(c0, r00);
    _mm256_storeu_ps(c0 + 8, r01);
    _mm256_storeu_ps(c1, r10);
    _mm256_storeu_ps(c1 + 8, r11);
    _mm256_storeu_ps(c2, r20);
    _mm256_storeu_ps(c2 + 8, r21);
    _mm256_storeu_ps(c3, r30);
    _mm256_storeu_ps(c3 + 8, r31);
}

/** Scalar column tail, ascending k like every other path. */
inline void
microScalar(const float *arow, const float *b, float *crow, int kb,
            int jb, int n)
{
    for (int j = 0; j < jb; ++j) {
        float cv = crow[j];
        const float *bp = b + j;
        // vblint: assoc-ok(pointer stride advance, not a float reduction)
        for (int kk = 0; kk < kb; ++kk, bp += n)
            cv += arow[kk] * *bp; // vblint: assoc-ok(ascending-k chain pinned by the backend bitwise contract, §12)
        crow[j] = cv;
    }
}

/** Widest bitwise-safe GEMM this CPU offers: the AVX-512 kernels when
 *  available (two 512-bit FP ports double the no-FMA mul+add
 *  throughput), the AVX2 kernels otherwise. Both keep the exact
 *  per-element ascending-k chain, so dispatch never changes bits. */
inline void
gemmDispatch(const float *a, const float *b, float *c, int m, int k, int n,
             bool accumulate)
{
    static const bool use512 = detail::avx512GemmAvailable();
    if (use512) {
        detail::gemmAvx512(a, b, c, m, k, n, accumulate);
        return;
    }
    detail::gemmAvx2(a, b, c, m, k, n, accumulate);
}

/** im2col is pure data movement, so dispatch is free to pick the
 *  fastest expansion: the AVX-512 expand-load path (one load + one
 *  store per 16-output segment) when the CPU has it and the row fits
 *  its segment cache, the AVX2 copies otherwise. */
inline void
im2colDispatch(const float *image, const ConvGeom &g,
               std::vector<float> &cols)
{
    static const bool use512 = detail::avx512GemmAvailable();
    if (use512 && g.outW() <= 128) {
        detail::im2colAvx512(image, g, cols);
        return;
    }
    detail::im2colAvx2(image, g, cols);
}

/** The AVX2 GEMM body: accumulates into C (callers zero it). */
void
gemmAvx2Core(const float *a, const float *b, float *c, int m, int k, int n)
{
    // Cache blocking: column panels of B stay resident while a K
    // block streams through; C tiles re-load their partial sums, so
    // each element still sums products in globally ascending k.
    constexpr int kNC = 256;
    constexpr int kKC = 160;
    for (int j0 = 0; j0 < n; j0 += kNC) {
        const int nb = std::min(kNC, n - j0);
        for (int k0 = 0; k0 < k; k0 += kKC) {
            const int kb = std::min(kKC, k - k0);
            const float *bblk =
                b + static_cast<std::size_t>(k0) * n + j0;
            int i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *a0 = a + static_cast<std::size_t>(i) * k + k0;
                const float *a1 = a0 + k;
                const float *a2 = a1 + k;
                const float *a3 = a2 + k;
                float *c0 = c + static_cast<std::size_t>(i) * n + j0;
                float *c1 = c0 + n;
                float *c2 = c1 + n;
                float *c3 = c2 + n;
                int j = 0;
                for (; j + 16 <= nb; j += 16)
                    micro4x16(a0, a1, a2, a3, bblk + j, c0 + j, c1 + j,
                              c2 + j, c3 + j, kb, n);
                for (int r = 0; r < 4; ++r) {
                    const float *ar = a0 + static_cast<std::size_t>(r) * k;
                    float *cr = c0 + static_cast<std::size_t>(r) * n;
                    int jj = j;
                    for (; jj + 8 <= nb; jj += 8)
                        micro1x8(ar, bblk + jj, cr + jj, kb, n);
                    if (jj < nb)
                        microScalar(ar, bblk + jj, cr + jj, kb, nb - jj,
                                    n);
                }
            }
            for (; i < m; ++i) {
                const float *ar = a + static_cast<std::size_t>(i) * k + k0;
                float *cr = c + static_cast<std::size_t>(i) * n + j0;
                int j = 0;
                for (; j + 16 <= nb; j += 16)
                    micro1x16(ar, bblk + j, cr + j, kb, n);
                for (; j + 8 <= nb; j += 8)
                    micro1x8(ar, bblk + j, cr + j, kb, n);
                if (j < nb)
                    microScalar(ar, bblk + j, cr + j, kb, nb - j, n);
            }
        }
    }
}

} // namespace

void
detail::gemmAvx2(const float *a, const float *b, float *c, int m, int k,
                 int n, bool accumulate)
{
    const std::size_t count =
        static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
    std::vector<std::size_t> seeds;
    if (accumulate)
        seeds = detail::negativeZeroSeeds(c, count);
    else
        std::memset(c, 0, sizeof(float) * count);
    gemmAvx2Core(a, b, c, m, k, n);
    detail::replayZeroSkipChains(seeds, a, b, c, k, n);
}

namespace {

// ---------------------------------------------------------- im2col

/** Inline copy/zero for the short runs im2col produces (the 3x3 conv
 *  layers copy 8-16 floats per row, where memcpy's dispatch overhead
 *  dominates). Plain element moves — bitwise-neutral. */
inline void
copyFloats(float *dst, const float *src, int len)
{
    int i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
    for (; i < len; ++i)
        dst[i] = src[i];
}

inline void
zeroFloats(float *dst, int len)
{
    const __m256 z = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(dst + i, z);
    for (; i < len; ++i)
        dst[i] = 0.0f;
}

} // namespace

/** im2col as row-segment copies: for each (channel, ki, kj) the valid
 *  output columns map to one contiguous input run per output row. */
void
detail::im2colAvx2(const float *image, const ConvGeom &g,
                   std::vector<float> &cols)
{
    const int out_h = g.outH();
    const int out_w = g.outW();
    const std::size_t spatial = g.spatial();
    cols.resize(static_cast<std::size_t>(g.patch()) * spatial);
    std::size_t row = 0;
    for (int c = 0; c < g.inCh; ++c) {
        const float *chan = image + static_cast<std::size_t>(c) *
                                        static_cast<std::size_t>(g.h) *
                                        static_cast<std::size_t>(g.w);
        for (int ki = 0; ki < g.kernel; ++ki) {
            for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                float *dst = cols.data() + row * spatial;
                // Valid output columns: 0 <= oj + kj - pad < w.
                const int oj_lo = std::max(0, g.pad - kj);
                const int oj_hi = std::min(out_w, g.w + g.pad - kj);
                // vblint: assoc-ok(pointer stride advance, not a float reduction)
                for (int oi = 0; oi < out_h; ++oi, dst += out_w) {
                    const int ii = oi + ki - g.pad;
                    if (ii < 0 || ii >= g.h || oj_lo >= oj_hi) {
                        zeroFloats(dst, out_w);
                        continue;
                    }
                    if (oj_lo > 0)
                        zeroFloats(dst, oj_lo);
                    copyFloats(dst + oj_lo,
                               chan + static_cast<std::size_t>(ii) *
                                          static_cast<std::size_t>(g.w) +
                                   static_cast<std::size_t>(oj_lo + kj -
                                                            g.pad),
                               oj_hi - oj_lo);
                    if (oj_hi < out_w)
                        zeroFloats(dst + oj_hi, out_w - oj_hi);
                }
            }
        }
    }
}

namespace {

// ------------------------------------------------------------- pool

/** De-interleave two 8-float loads into even and odd columns:
 *  evens = [a0,a2,a4,a6,b0,b2,b4,b6], odds likewise. */
inline __m256
deinterleave(__m256 a, __m256 b, int which)
{
    const __m256 mixed =
        which == 0 ? _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))
                   : _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(mixed), 0xD8));
}

/** One step of the reference's scan, `if (v > best) best = v`, on
 *  eight windows. With `arg`, also record the window position `pos`
 *  of every kept candidate. */
inline void
keepIfGreater(__m256 &best, __m256i *arg, __m256 v, int pos)
{
    if (arg == nullptr) {
        // MAXPS(v, best) returns v only when v > best (ordered), and
        // best on ties and NaN: the step itself.
        best = _mm256_max_ps(v, best);
        return;
    }
    const __m256 gt = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
    best = _mm256_blendv_ps(best, v, gt);
    *arg = _mm256_blendv_epi8(*arg, _mm256_set1_epi32(pos),
                              _mm256_castps_si256(gt));
}

/**
 * 2x2/stride-2 max pool, folding each window in the reference's
 * (di, dj) visit order, so the same element wins — -0.0 vs +0.0 ties
 * and NaN included. `argmax` (one byte per output, 2 di + dj) is the
 * training variant; nullptr skips it.
 */
void
maxPool2x2Avx2(const float *x, float *y, std::uint8_t *argmax, int batch,
               int c, int h, int w)
{
    const int oh = h / 2, ow = w / 2;
    std::size_t oidx = 0;
    for (int n = 0; n < batch; ++n) {
        for (int ch = 0; ch < c; ++ch) {
            const float *plane = x + (static_cast<std::size_t>(n) * c + ch) *
                                         static_cast<std::size_t>(h) * w;
            for (int i = 0; i < oh; ++i) {
                const float *r0 =
                    plane + static_cast<std::size_t>(2 * i) * w;
                const float *r1 = r0 + w;
                int j = 0;
                for (; j + 8 <= ow; j += 8, oidx += 8) {
                    const __m256 a0 = _mm256_loadu_ps(r0 + 2 * j);
                    const __m256 b0 = _mm256_loadu_ps(r0 + 2 * j + 8);
                    const __m256 a1 = _mm256_loadu_ps(r1 + 2 * j);
                    const __m256 b1 = _mm256_loadu_ps(r1 + 2 * j + 8);
                    __m256 best = deinterleave(a0, b0, 0);
                    __m256i arg = _mm256_setzero_si256();
                    __m256i *track = argmax != nullptr ? &arg : nullptr;
                    keepIfGreater(best, track, deinterleave(a0, b0, 1), 1);
                    keepIfGreater(best, track, deinterleave(a1, b1, 0), 2);
                    keepIfGreater(best, track, deinterleave(a1, b1, 1), 3);
                    _mm256_storeu_ps(y + oidx, best);
                    if (argmax == nullptr)
                        continue;
                    // Narrow the eight 0..3 lanes to bytes.
                    const __m128i w16 =
                        _mm_packs_epi32(_mm256_castsi256_si128(arg),
                                        _mm256_extracti128_si256(arg, 1));
                    _mm_storel_epi64(
                        reinterpret_cast<__m128i *>(argmax + oidx),
                        _mm_packus_epi16(w16, w16));
                }
                for (; j < ow; ++j, ++oidx) {
                    const float v[4] = {r0[2 * j], r0[2 * j + 1], r1[2 * j],
                                        r1[2 * j + 1]};
                    int pos = 0;
                    for (int q = 1; q < 4; ++q)
                        if (v[q] > v[pos])
                            pos = q;
                    y[oidx] = v[pos];
                    if (argmax != nullptr)
                        argmax[oidx] = static_cast<std::uint8_t>(pos);
                }
            }
        }
    }
}

/** Max-pool backward: every dx element written once. The kept position
 *  gets 0.0f + dy, the reference's add onto a zeroed dx (which turns a
 *  -0.0 gradient into +0.0); the others get +0.0. */
void
maxPool2x2BackwardAvx2(const float *dy, const std::uint8_t *argmax,
                       float *dx, int batch, int c, int h, int w)
{
    const int oh = h / 2, ow = w / 2;
    const std::size_t planes = static_cast<std::size_t>(batch) * c;
    const __m256 zero = _mm256_setzero_ps();
    std::size_t oidx = 0;
    for (std::size_t p = 0; p < planes; ++p) {
        float *plane = dx + p * static_cast<std::size_t>(h) * w;
        for (int i = 0; i < oh; ++i) {
            float *r0 = plane + static_cast<std::size_t>(2 * i) * w;
            float *r1 = r0 + w;
            int j = 0;
            for (; j + 8 <= ow; j += 8, oidx += 8) {
                const __m256 g =
                    _mm256_add_ps(zero, _mm256_loadu_ps(dy + oidx));
                const __m256i arg = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(argmax + oidx)));
                __m256 v[4];
                for (int q = 0; q < 4; ++q)
                    v[q] = _mm256_and_ps(
                        _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                            arg, _mm256_set1_epi32(q))),
                        g);
                // Interleave (dj = 0, dj = 1) pairs back into rows.
                for (int di = 0; di < 2; ++di) {
                    const __m256 lo =
                        _mm256_unpacklo_ps(v[2 * di], v[2 * di + 1]);
                    const __m256 hi =
                        _mm256_unpackhi_ps(v[2 * di], v[2 * di + 1]);
                    float *row = di == 0 ? r0 : r1;
                    _mm256_storeu_ps(row + 2 * j,
                                     _mm256_permute2f128_ps(lo, hi, 0x20));
                    _mm256_storeu_ps(row + 2 * j + 8,
                                     _mm256_permute2f128_ps(lo, hi, 0x31));
                }
            }
            for (; j < ow; ++j, ++oidx) {
                const float g = 0.0f + dy[oidx];
                const int pos = argmax[oidx];
                r0[2 * j] = pos == 0 ? g : 0.0f;
                r0[2 * j + 1] = pos == 1 ? g : 0.0f;
                r1[2 * j] = pos == 2 ? g : 0.0f;
                r1[2 * j + 1] = pos == 3 ? g : 0.0f;
            }
        }
    }
}

// ------------------------------------------------------------- relu

/** relu() plus its bit mask: one movemask byte per eight elements. */
void
reluForwardMaskAvx2(const float *x, float *y, std::uint8_t *mask,
                    std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        // Ordered x > 0 is false for NaN and both zeros: exactly the
        // elements MAXPS(x, +0.0) maps to +0.0.
        mask[i / 8] = static_cast<std::uint8_t>(
            _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ)));
        _mm256_storeu_ps(y + i, _mm256_max_ps(v, zero));
    }
    if (i == n)
        return;
    mask[i / 8] = 0;
    for (; i < n; ++i) {
        const bool pos = x[i] > 0.0f;
        y[i] = pos ? x[i] : 0.0f;
        mask[i / 8] |= static_cast<std::uint8_t>(pos ? 1u << (i % 8) : 0u);
    }
}

void
reluBackwardAvx2(const float *dy, const std::uint8_t *mask, float *dx,
                 std::size_t n)
{
    const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i bits = _mm256_and_si256(
            _mm256_set1_epi32(mask[i / 8]), lane_bit);
        const __m256 keep =
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(bits, lane_bit));
        _mm256_storeu_ps(dx + i,
                         _mm256_and_ps(keep, _mm256_loadu_ps(dy + i)));
    }
    for (; i < n; ++i)
        dx[i] = (mask[i / 8] >> (i % 8)) & 1u ? dy[i] : 0.0f;
}

// ----------------------------------------------------------- col2im

/** col2im as row-segment adds, the mirror of im2colAvx2: within one
 *  (channel, ki, kj) row every dx element is hit at most once, and
 *  rows are visited in the reference's order, so each element's adds
 *  keep their sequence. */
void
col2imAvx2(const float *cols, float *dx, const ConvGeom &g)
{
    const int out_h = g.outH();
    const int out_w = g.outW();
    const std::size_t spatial = g.spatial();
    std::size_t row = 0;
    for (int c = 0; c < g.inCh; ++c) {
        float *chan = dx + static_cast<std::size_t>(c) *
                               static_cast<std::size_t>(g.h) *
                               static_cast<std::size_t>(g.w);
        for (int ki = 0; ki < g.kernel; ++ki) {
            const int oi_lo = std::max(0, g.pad - ki);
            const int oi_hi = std::min(out_h, g.h + g.pad - ki);
            for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                const int oj_lo = std::max(0, g.pad - kj);
                const int oj_hi = std::min(out_w, g.w + g.pad - kj);
                const int len = oj_hi - oj_lo;
                for (int oi = oi_lo; oi < oi_hi && len > 0; ++oi) {
                    const float *src =
                        cols + row * spatial +
                        static_cast<std::size_t>(oi) * out_w + oj_lo;
                    float *dst = chan +
                                 static_cast<std::size_t>(oi + ki - g.pad) *
                                     static_cast<std::size_t>(g.w) +
                                 (oj_lo + kj - g.pad);
                    int q = 0;
                    for (; q + 8 <= len; q += 8)
                        _mm256_storeu_ps(
                            dst + q, _mm256_add_ps(_mm256_loadu_ps(dst + q),
                                                   _mm256_loadu_ps(src + q)));
                    for (; q < len; ++q)
                        dst[q] += src[q]; // vblint: assoc-ok(one add per dx element per row, rows in reference order)
                }
            }
        }
    }
}

// -------------------------------------------------------- transpose

/** 8x8 block transpose: dst[j * ld + i] = src[i * ls + j]. */
inline void
transpose8x8(const float *src, std::size_t ls, float *dst, std::size_t ld)
{
    __m256 r[8], t[8];
    for (int i = 0; i < 8; ++i)
        r[i] = _mm256_loadu_ps(src + static_cast<std::size_t>(i) * ls);
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
        r[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
        r[i + 1] =
            _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
        r[i + 2] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
        r[i + 3] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int i = 0; i < 4; ++i) {
        _mm256_storeu_ps(dst + static_cast<std::size_t>(i) * ld,
                         _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
        _mm256_storeu_ps(dst + static_cast<std::size_t>(i + 4) * ld,
                         _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
    }
}

/** dst [cols, rows] = src [rows, cols]^T. Pure moves. */
void
transpose(const float *src, int rows, int cols, float *dst)
{
    const auto ur = static_cast<std::size_t>(rows);
    const auto uc = static_cast<std::size_t>(cols);
    std::size_t i = 0;
    for (; i + 8 <= ur; i += 8) {
        std::size_t j = 0;
        for (; j + 8 <= uc; j += 8)
            transpose8x8(src + i * uc + j, uc, dst + j * ur + i, ur);
        for (; j < uc; ++j)
            for (std::size_t r = i; r < i + 8; ++r)
                dst[j * ur + r] = src[r * uc + j];
    }
    for (; i < ur; ++i)
        for (std::size_t j = 0; j < uc; ++j)
            dst[j * ur + i] = src[i * uc + j];
}

} // namespace

void
detail::gemmTransAVia(GemmKernel gemm, const float *a, const float *b,
                      float *c, int m, int k, int n, bool accumulate)
{
    // A^T [m, k] row i is the reference's column i of A, read in the
    // same ascending-k order; C stays the seed of every chain.
    std::vector<float> at(static_cast<std::size_t>(m) *
                          static_cast<std::size_t>(k));
    transpose(a, k, m, at.data());
    gemm(at.data(), b, c, m, k, n, accumulate);
}

void
detail::gemmTransBVia(GemmKernel gemm, const float *a, const float *b,
                      float *c, int m, int k, int n, bool accumulate)
{
    const std::size_t mk = static_cast<std::size_t>(m) * k;
    const std::size_t nk = static_cast<std::size_t>(n) * k;
    const std::size_t mn = static_cast<std::size_t>(m) * n;
    // Either way a GEMM with accumulate=false computes each dot
    // product as the reference does: a chain from +0.0 over the same
    // products (a * b == b * a exactly) in ascending k, no zero skip.
    if (mk + mn < nk) {
        // Conv weight gradients (A = the output gradient is the small
        // operand): C^T = B A^T, folded back transposed.
        std::vector<float> at(mk), ct(mn);
        transpose(a, m, k, at.data());
        gemm(b, at.data(), ct.data(), n, k, m, /*accumulate=*/false);
        for (int i = 0; i < m; ++i) {
            float *crow = c + static_cast<std::size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                crow[j] = (accumulate ? crow[j] : 0.0f) +
                          ct[static_cast<std::size_t>(j) * m + i];
        }
        return;
    }
    std::vector<float> bt(nk);
    transpose(b, n, k, bt.data());
    if (!accumulate) {
        gemm(a, bt.data(), c, m, k, n, /*accumulate=*/false);
        return;
    }
    std::vector<float> t(mn);
    gemm(a, bt.data(), t.data(), m, k, n, /*accumulate=*/false);
    for (std::size_t e = 0; e < mn; ++e)
        c[e] += t[e]; // vblint: assoc-ok(single add of one finished dot product per element)
}

namespace {

// ----------------------------------------------------------- faults

/** Iterate the faulty bits of one <=64-bit mask in ascending order,
 *  drawing one bernoulli per faulty cell — the scalar loop's exact
 *  RNG consumption — and flip accepted bits. */
inline std::uint64_t
flipMaskedBits(std::uint64_t &bits, std::uint64_t fault_mask,
               double flip_prob, Rng &rng)
{
    std::uint64_t flipped = 0;
    while (fault_mask != 0) {
        const int b = std::countr_zero(fault_mask);
        fault_mask &= fault_mask - 1;
        if (rng.bernoulli(flip_prob)) {
            bits ^= 1ull << b;
            ++flipped;
        }
    }
    return flipped;
}

std::uint64_t
applyFaultMapPacked(std::span<std::int16_t> words,
                    const sram::VulnerabilityMap &map,
                    const FaultWindow &win, sram::FaultParams params,
                    Rng &rng)
{
    if (params.failProb <= 0.0 || params.flipProb <= 0.0)
        return 0;
    const sram::PackedFaultMap packed(map, win.regionBase, win.regionBits,
                                      win.startBit, words.size() * 16ull,
                                      params.failProb);
    std::uint64_t flipped = 0;
    std::size_t w = 0;
    // Four 16-bit words per packed 64-bit mask; one compare skips all
    // four when the window is fault-free there (the common case).
    for (; w + 4 <= words.size(); w += 4) {
        std::uint64_t m = packed.words()[w >> 2];
        if (m == 0)
            continue;
        for (std::size_t q = 0; q < 4; ++q, m >>= 16) {
            const std::uint64_t m16 = m & 0xffffull;
            if (m16 == 0)
                continue;
            std::uint64_t bits =
                static_cast<std::uint16_t>(words[w + q]);
            flipped += flipMaskedBits(bits, m16, params.flipProb, rng);
            words[w + q] =
                static_cast<std::int16_t>(static_cast<std::uint16_t>(bits));
        }
    }
    for (; w < words.size(); ++w) {
        const std::uint64_t m16 = packed.mask(w * 16, 16);
        if (m16 == 0)
            continue;
        std::uint64_t bits = static_cast<std::uint16_t>(words[w]);
        flipped += flipMaskedBits(bits, m16, params.flipProb, rng);
        words[w] =
            static_cast<std::int16_t>(static_cast<std::uint16_t>(bits));
    }
    return flipped;
}

class VectorizedBackend final : public Backend
{
  public:
    std::string_view name() const override { return "vectorized"; }

    void
    gemm(const float *a, const float *b, float *c, int m, int k, int n,
         bool accumulate) const override
    {
        gemmDispatch(a, b, c, m, k, n, accumulate);
    }

    void
    gemmTransA(const float *a, const float *b, float *c, int m, int k,
               int n, bool accumulate) const override
    {
        detail::gemmTransAVia(gemmDispatch, a, b, c, m, k, n, accumulate);
    }

    void
    gemmTransB(const float *a, const float *b, float *c, int m, int k,
               int n, bool accumulate) const override
    {
        detail::gemmTransBVia(gemmDispatch, a, b, c, m, k, n, accumulate);
    }

    void
    im2col(const float *image, const ConvGeom &g,
           std::vector<float> &cols) const override
    {
        im2colDispatch(image, g, cols);
    }

    void
    col2im(const float *cols, float *dx, const ConvGeom &g) const override
    {
        col2imAvx2(cols, dx, g);
    }

    void
    im2colConv(const float *image, const float *weights, const float *bias,
               float *out, const ConvGeom &g,
               std::vector<float> &cols) const override
    {
        const std::size_t spatial = g.spatial();
        im2colDispatch(image, g, cols);
        gemmDispatch(weights, cols.data(), out, g.outCh, g.patch(),
                     static_cast<int>(spatial), /*accumulate=*/false);
        for (int oc = 0; oc < g.outCh; ++oc) {
            float *chan = out + static_cast<std::size_t>(oc) * spatial;
            const __m256 bv = _mm256_set1_ps(bias[oc]);
            std::size_t i = 0;
            for (; i + 8 <= spatial; i += 8)
                _mm256_storeu_ps(
                    chan + i,
                    _mm256_add_ps(_mm256_loadu_ps(chan + i), bv));
            for (; i < spatial; ++i)
                chan[i] += bias[oc]; // vblint: assoc-ok(single bias add per element, no reduction)
        }
    }

    void
    maxPool2x2(const float *x, float *y, int batch, int c, int h,
               int w) const override
    {
        maxPool2x2Avx2(x, y, nullptr, batch, c, h, w);
    }

    void
    maxPool2x2Argmax(const float *x, float *y, std::uint8_t *argmax,
                     int batch, int c, int h, int w) const override
    {
        maxPool2x2Avx2(x, y, argmax, batch, c, h, w);
    }

    void
    maxPool2x2Backward(const float *dy, const std::uint8_t *argmax,
                       float *dx, int batch, int c, int h,
                       int w) const override
    {
        maxPool2x2BackwardAvx2(dy, argmax, dx, batch, c, h, w);
    }

    void
    relu(const float *x, float *y, std::size_t n) const override
    {
        // MAXPS(x, +0.0) is exactly `x > 0 ? x : +0.0f`: it returns the
        // second operand on ties (-0.0) and unordered (NaN) inputs.
        const __m256 zero = _mm256_setzero_ps();
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8)
            _mm256_storeu_ps(y + i,
                             _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
        for (; i < n; ++i)
            y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }

    void
    reluForwardMask(const float *x, float *y, std::uint8_t *mask,
                    std::size_t n) const override
    {
        reluForwardMaskAvx2(x, y, mask, n);
    }

    void
    reluBackward(const float *dy, const std::uint8_t *mask, float *dx,
                 std::size_t n) const override
    {
        reluBackwardAvx2(dy, mask, dx, n);
    }

    std::uint64_t
    applyFaultMap(std::span<std::int16_t> words,
                  const sram::VulnerabilityMap &map, const FaultWindow &win,
                  sram::FaultParams params, Rng &rng) const override
    {
        return applyFaultMapPacked(words, map, win, params, rng);
    }

    std::uint64_t
    applyFaultMapDequant(std::span<std::int16_t> words,
                         const FixedPointCodec &codec, float *out,
                         const sram::VulnerabilityMap &map,
                         const FaultWindow &win, sram::FaultParams params,
                         Rng &rng) const override
    {
        const std::uint64_t flipped =
            applyFaultMapPacked(words, map, win, params, rng);
        // decode(raw) = float(raw) / 2^frac = float(raw) * 2^-frac,
        // exact either way for the int16 range (see file header).
        const __m256 scale = _mm256_set1_ps(codec.resolution());
        std::size_t i = 0;
        for (; i + 8 <= words.size(); i += 8) {
            const __m128i raw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(words.data() + i));
            const __m256 vals =
                _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(raw));
            _mm256_storeu_ps(out + i, _mm256_mul_ps(vals, scale));
        }
        for (; i < words.size(); ++i)
            out[i] = codec.decode(words[i]);
        return flipped;
    }

    std::uint64_t
    applyFaultMapBits(std::uint64_t &bits, int nbits,
                      const sram::VulnerabilityMap &map,
                      const FaultWindow &win, sram::FaultParams params,
                      Rng &rng) const override
    {
        if (params.failProb <= 0.0)
            return 0;
        // Build the <=64-bit fault mask in place (no per-group heap
        // allocation): the ECC staging loop calls this once per
        // 64-bit data group and once per 8-bit check group.
        const std::uint64_t offset = win.startBit % win.regionBits;
        std::uint64_t mask;
        if (static_cast<std::uint64_t>(nbits) == 64 &&
            offset + 64 <= win.regionBits) {
            // A full data group of consecutive cells: the packer's
            // stratum-aware mask (zero defect bits on i.i.d. maps).
            const std::uint64_t cell = win.regionBase + offset;
            mask = sram::faultMask(
                map.streamKey(), map.stratumThresholds(params.failProb),
                sram::DefectCursor(map, cell, 64).next(64), cell, 64);
        } else {
            mask = 0;
            for (int b = 0; b < nbits; ++b) {
                const std::uint64_t cell =
                    win.regionBase +
                    (win.startBit + static_cast<std::uint64_t>(b)) %
                        win.regionBits;
                if (map.isFaulty(cell, params.failProb))
                    mask |= 1ull << b;
            }
        }
        return flipMaskedBits(bits, mask, params.flipProb, rng);
    }
};

} // namespace

namespace detail {

const Backend *
vectorizedBackendIfAvailable()
{
    static const bool supported = __builtin_cpu_supports("avx2");
    if (!supported)
        return nullptr;
    static const VectorizedBackend kVectorized;
    return &kVectorized;
}

} // namespace detail

} // namespace vboost::dnn

#else // !VBOOST_HAVE_AVX2

#include "common/logging.hpp"

namespace vboost::dnn::detail {

const Backend *
vectorizedBackendIfAvailable()
{
    return nullptr;
}

void
gemmAvx2(const float *, const float *, float *, int, int, int, bool)
{
    fatal("gemmAvx2: called in a build without AVX2 support");
}

void
im2colAvx2(const float *, const ConvGeom &, std::vector<float> &)
{
    fatal("im2colAvx2: called in a build without AVX2 support");
}

void
gemmTransAVia(GemmKernel, const float *, const float *, float *, int, int,
              int, bool)
{
    fatal("gemmTransAVia: called in a build without AVX2 support");
}

void
gemmTransBVia(GemmKernel, const float *, const float *, float *, int, int,
              int, bool)
{
    fatal("gemmTransBVia: called in a build without AVX2 support");
}

} // namespace vboost::dnn::detail

#endif // VBOOST_HAVE_AVX2
