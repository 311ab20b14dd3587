/**
 * @file
 * Backend equivalence suite (ctest `backend_equivalence`): the §12
 * bitwise contract. Every kernel of the vectorized backend must
 * produce byte-identical results to the scalar reference backend —
 * GEMM (plain and transposed) across awkward shapes, im2col/col2im and
 * conv geometries on and off the SIMD fast paths, pooling and relu
 * (inference and training, masks and argmax included) on signed zeros
 * and NaNs, the fault kernels' flip patterns AND their RNG consumption
 * order, the int16 quantization kernels against the scalar codec
 * (ties, saturation, infinities, NaN, denormals), packed fault-map
 * bits, whole-network logits and gradients,
 * trained-weight digests, and Monte-Carlo experiment digests plus
 * observability fingerprints at 1 vs 8 threads. Kernels with more
 * than one instruction-set tier are also checked tier by tier, so an
 * AVX-512 host still covers the AVX2 code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/backend/impl.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"
#include "fi/experiment.hpp"
#include "obs/observability.hpp"
#include "recovery/recovery.hpp"
#include "sram/fault_map.hpp"
#include "sram/packed_fault_map.hpp"

namespace vboost::dnn {
namespace {

/** Bitwise equality for float buffers (NaN-safe, -0.0 != +0.0). */
::testing::AssertionResult
bitsEqual(const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
            std::uint32_t ba, bb;
            std::memcpy(&ba, &a[i], 4);
            std::memcpy(&bb, &b[i], 4);
            return ::testing::AssertionFailure()
                   << "bit mismatch at [" << i << "]: " << a[i] << " (0x"
                   << std::hex << ba << ") vs " << b[i] << " (0x" << bb
                   << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Mixed-magnitude fill: negatives, zeros of both signs, tiny values. */
void
fillMixed(std::vector<float> &v, Rng &rng)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        switch (rng.uniformInt(8)) {
        case 0: v[i] = 0.0f; break;
        case 1: v[i] = -0.0f; break;
        case 2: v[i] = static_cast<float>(rng.normal(0.0, 1e-30)); break;
        default:
            v[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
    }
}

class BackendEquivalence : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ref_ = &referenceBackend();
        vec_ = findBackend("vectorized");
        if (vec_ == nullptr)
            GTEST_SKIP() << "vectorized backend unavailable on this host";
    }

    const Backend *ref_ = nullptr;
    const Backend *vec_ = nullptr;
};

// ------------------------------------------------------------- gemm

TEST_F(BackendEquivalence, GemmBitwiseAcrossShapes)
{
    // Primes and tails around the 8x32 micro-kernel, the masked
    // remainder kernel, the packing threshold (n >= 512) and the
    // cache-blocking boundaries (nc=512, kc=256).
    const int shapes[][3] = {{1, 1, 1},     {3, 7, 5},    {8, 32, 32},
                             {7, 13, 31},   {17, 31, 33}, {16, 25, 1024},
                             {64, 64, 64},  {5, 13, 513}, {16, 257, 544},
                             {33, 300, 70}, {2, 400, 36}, {16, 75, 1024}};
    Rng rng(101);
    for (const auto &s : shapes) {
        const int m = s[0], k = s[1], n = s[2];
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        fillMixed(a, rng);
        fillMixed(b, rng);
        for (bool accumulate : {false, true}) {
            std::vector<float> c0(static_cast<std::size_t>(m) * n);
            fillMixed(c0, rng);
            std::vector<float> c1 = c0;
            ref_->gemm(a.data(), b.data(), c0.data(), m, k, n, accumulate);
            vec_->gemm(a.data(), b.data(), c1.data(), m, k, n, accumulate);
            EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                << "gemm m=" << m << " k=" << k << " n=" << n
                << " accumulate=" << accumulate;
        }
    }
}

// ---------------------------------------------- transposed GEMMs

/** {m, k, n} shapes for the training GEMMs: tails around the 8/16/32
 *  lane widths, the AlexNet-CIFAR conv shapes {outCh, patch, spatial}
 *  and the fc6 Dense shape {batch, in, out}, plus the permutations the
 *  backward pass runs them in (weight gradient m=outCh k=spatial
 *  n=patch, input gradient m=patch k=outCh n=spatial; Dense m=in k=batch
 *  n=out and m=batch k=out n=in). */
const int kTrainShapes[][3] = {
    {1, 1, 1},      {7, 9, 15},     {8, 16, 32},    {9, 17, 33},
    {15, 31, 7},    {16, 33, 17},   {31, 8, 65},    {33, 7, 16},
    {16, 75, 1024}, {24, 400, 256}, {48, 288, 64},  {64, 768, 10},
    {16, 1024, 75}, {24, 256, 400}, {48, 64, 288},  {75, 16, 1024},
    {400, 24, 256}, {288, 48, 64},  {768, 64, 10},  {64, 10, 768}};

/** Run `other` against the reference's gemmTransA (`trans_a`) or
 *  gemmTransB on every training shape, with and without accumulation
 *  (C seeded with mixed values, -0.0 included). */
template <typename Kernel>
void
expectTransposedGemmMatches(const Backend &ref, bool trans_a,
                            Kernel other, const char *what)
{
    Rng rng(111);
    for (const auto &s : kTrainShapes) {
        const int m = s[0], k = s[1], n = s[2];
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        fillMixed(a, rng);
        fillMixed(b, rng);
        for (bool accumulate : {false, true}) {
            std::vector<float> c0(static_cast<std::size_t>(m) * n);
            fillMixed(c0, rng);
            std::vector<float> c1 = c0;
            if (trans_a)
                ref.gemmTransA(a.data(), b.data(), c0.data(), m, k, n,
                               accumulate);
            else
                ref.gemmTransB(a.data(), b.data(), c0.data(), m, k, n,
                               accumulate);
            other(a.data(), b.data(), c1.data(), m, k, n, accumulate);
            EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                << what << " m=" << m << " k=" << k << " n=" << n
                << " accumulate=" << accumulate;
        }
    }
}

TEST_F(BackendEquivalence, GemmTransABitwiseAcrossShapes)
{
    const Backend *vec = vec_;
    expectTransposedGemmMatches(
        *ref_, true,
        [vec](const float *a, const float *b, float *c, int m, int k, int n,
              bool acc) { vec->gemmTransA(a, b, c, m, k, n, acc); },
        "gemmTransA");
}

TEST_F(BackendEquivalence, GemmTransBBitwiseAcrossShapes)
{
    const Backend *vec = vec_;
    expectTransposedGemmMatches(
        *ref_, false,
        [vec](const float *a, const float *b, float *c, int m, int k, int n,
              bool acc) { vec->gemmTransB(a, b, c, m, k, n, acc); },
        "gemmTransB");
}

/** The GEMM tiers this CPU supports, by name, for direct calls. */
std::vector<std::pair<const char *, detail::GemmKernel>>
gemmTiers()
{
    std::vector<std::pair<const char *, detail::GemmKernel>> tiers = {
        {"avx2", detail::gemmAvx2}};
    if (detail::avx512GemmAvailable())
        tiers.emplace_back("avx512", detail::gemmAvx512);
    return tiers;
}

TEST_F(BackendEquivalence, ZeroSkipOnNegativeZeroSeed)
{
    // The reference skips products whose A element is zero. On an
    // accumulator seeded with -0.0 that is observable: adding the
    // skipped +0.0 product would give +0.0. Every SIMD path replays
    // the reference chain there.
    const int m = 4, k = 3, n = 20;
    std::vector<float> a(static_cast<std::size_t>(m) * k, 0.0f);
    std::vector<float> b(static_cast<std::size_t>(k) * n, 1.0f);
    a[1] = -0.0f;         // row 0: every product skipped
    a[k + 2] = -2.0f;     // row 1: one product, nonzero
    a[2 * k] = 1e-30f;    // row 2: a product that underflows to +0.0
    b[5] = 1e-30f;
    const std::vector<float> seed(static_cast<std::size_t>(m) * n, -0.0f);
    std::vector<float> expect = seed;
    ref_->gemm(a.data(), b.data(), expect.data(), m, k, n, true);
    EXPECT_TRUE(std::signbit(expect[0])) << "skipped chain must stay -0.0";
    // A^T stored [k, m] for the transposed variant.
    std::vector<float> at(a.size());
    for (int i = 0; i < m; ++i)
        for (int kk = 0; kk < k; ++kk)
            at[static_cast<std::size_t>(kk) * m + i] =
                a[static_cast<std::size_t>(i) * k + kk];
    std::vector<float> c = seed;
    ref_->gemmTransA(at.data(), b.data(), c.data(), m, k, n, true);
    EXPECT_TRUE(bitsEqual(expect.data(), c.data(), c.size()));
    c = seed;
    vec_->gemm(a.data(), b.data(), c.data(), m, k, n, true);
    EXPECT_TRUE(bitsEqual(expect.data(), c.data(), c.size()));
    c = seed;
    vec_->gemmTransA(at.data(), b.data(), c.data(), m, k, n, true);
    EXPECT_TRUE(bitsEqual(expect.data(), c.data(), c.size()));
    for (const auto &[tier, gemm] : gemmTiers()) {
        c = seed;
        gemm(a.data(), b.data(), c.data(), m, k, n, true);
        EXPECT_TRUE(bitsEqual(expect.data(), c.data(), c.size())) << tier;
    }
}

// ------------------------------------------------------ ISA tiers

TEST_F(BackendEquivalence, IsaTiersMatchReference)
{
    // The vectorized backend dispatches to its widest tier, so each
    // tier the CPU supports is called here directly.
    for (const auto &[tier, gemm] : gemmTiers()) {
        Rng rng(121);
        for (const auto &s : kTrainShapes) {
            const int m = s[0], k = s[1], n = s[2];
            std::vector<float> a(static_cast<std::size_t>(m) * k);
            std::vector<float> b(static_cast<std::size_t>(k) * n);
            fillMixed(a, rng);
            fillMixed(b, rng);
            for (bool accumulate : {false, true}) {
                std::vector<float> c0(static_cast<std::size_t>(m) * n);
                fillMixed(c0, rng);
                std::vector<float> c1 = c0;
                ref_->gemm(a.data(), b.data(), c0.data(), m, k, n,
                           accumulate);
                gemm(a.data(), b.data(), c1.data(), m, k, n, accumulate);
                EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                    << tier << " gemm m=" << m << " k=" << k << " n=" << n
                    << " accumulate=" << accumulate;
            }
        }
        const detail::GemmKernel tier_gemm = gemm;
        expectTransposedGemmMatches(
            *ref_, true,
            [tier_gemm](const float *a, const float *b, float *c, int m,
                        int k, int n, bool acc) {
                detail::gemmTransAVia(tier_gemm, a, b, c, m, k, n, acc);
            },
            tier);
        expectTransposedGemmMatches(
            *ref_, false,
            [tier_gemm](const float *a, const float *b, float *c, int m,
                        int k, int n, bool acc) {
                detail::gemmTransBVia(tier_gemm, a, b, c, m, k, n, acc);
            },
            tier);
    }

    const ConvGeom geoms[] = {{3, 8, 5, 2, 32, 32}, {16, 8, 5, 2, 16, 16},
                              {8, 4, 3, 1, 8, 8},   {2, 3, 5, 2, 10, 12},
                              {4, 4, 3, 1, 7, 9},   {2, 2, 7, 3, 8, 8}};
    Rng rng(131);
    for (const auto &g : geoms) {
        std::vector<float> image(static_cast<std::size_t>(g.inCh) * g.h *
                                 g.w);
        fillMixed(image, rng);
        std::vector<float> cols0, cols1, cols2;
        ref_->im2col(image.data(), g, cols0);
        detail::im2colAvx2(image.data(), g, cols1);
        EXPECT_TRUE(bitsEqual(cols0.data(), cols1.data(), cols0.size()))
            << "avx2 im2col k=" << g.kernel << " w=" << g.w;
        if (detail::avx512GemmAvailable()) {
            detail::im2colAvx512(image.data(), g, cols2);
            EXPECT_TRUE(
                bitsEqual(cols0.data(), cols2.data(), cols0.size()))
                << "avx512 im2col k=" << g.kernel << " w=" << g.w;
        }
    }
}

// --------------------------------------------------- im2col and conv

TEST_F(BackendEquivalence, Im2colAndConvBitwise)
{
    // Geometries on the stride-matched bulk path (w in {8, 16, 32}),
    // the per-row masked path (w = 12, w = 9), 1x1 no-pad, a kernel
    // wider than the image's valid span, and non-square images.
    const ConvGeom geoms[] = {
        {3, 8, 5, 2, 32, 32}, {16, 8, 5, 2, 16, 16}, {8, 4, 3, 1, 8, 8},
        {2, 3, 5, 2, 10, 12}, {4, 4, 3, 1, 7, 9},    {1, 2, 1, 0, 4, 4},
        {2, 2, 7, 3, 8, 8},   {3, 3, 3, 1, 16, 8},
    };
    Rng rng(202);
    for (const auto &g : geoms) {
        std::vector<float> image(
            static_cast<std::size_t>(g.inCh) * g.h * g.w);
        std::vector<float> weights(static_cast<std::size_t>(g.outCh) *
                                   g.patch());
        std::vector<float> bias(static_cast<std::size_t>(g.outCh));
        fillMixed(image, rng);
        fillMixed(weights, rng);
        fillMixed(bias, rng);

        std::vector<float> cols0, cols1;
        ref_->im2col(image.data(), g, cols0);
        vec_->im2col(image.data(), g, cols1);
        ASSERT_EQ(cols0.size(), cols1.size());
        EXPECT_TRUE(bitsEqual(cols0.data(), cols1.data(), cols0.size()))
            << "im2col k=" << g.kernel << " h=" << g.h << " w=" << g.w;

        std::vector<float> out0(static_cast<std::size_t>(g.outCh) *
                                g.spatial());
        std::vector<float> out1(out0.size());
        std::vector<float> scratch0, scratch1;
        ref_->im2colConv(image.data(), weights.data(), bias.data(),
                         out0.data(), g, scratch0);
        vec_->im2colConv(image.data(), weights.data(), bias.data(),
                         out1.data(), g, scratch1);
        EXPECT_TRUE(bitsEqual(out0.data(), out1.data(), out0.size()))
            << "im2colConv k=" << g.kernel << " h=" << g.h
            << " w=" << g.w;
    }
}

TEST_F(BackendEquivalence, Col2imBitwise)
{
    // Each dx element sums its patch entries in (c, ki, kj) row order
    // on top of whatever dx held (mixed values, -0.0 included).
    const ConvGeom geoms[] = {
        {3, 8, 5, 2, 32, 32}, {16, 8, 5, 2, 16, 16}, {24, 8, 3, 1, 8, 8},
        {2, 3, 5, 2, 10, 12}, {4, 4, 3, 1, 7, 9},    {1, 2, 1, 0, 4, 4},
        {2, 2, 7, 3, 8, 8},   {3, 3, 3, 1, 16, 8},   {2, 2, 3, 0, 11, 19},
    };
    Rng rng(212);
    for (const auto &g : geoms) {
        std::vector<float> cols(static_cast<std::size_t>(g.patch()) *
                                g.spatial());
        std::vector<float> dx0(static_cast<std::size_t>(g.inCh) * g.h *
                               g.w);
        fillMixed(cols, rng);
        fillMixed(dx0, rng);
        std::vector<float> dx1 = dx0;
        ref_->col2im(cols.data(), dx0.data(), g);
        vec_->col2im(cols.data(), dx1.data(), g);
        EXPECT_TRUE(bitsEqual(dx0.data(), dx1.data(), dx0.size()))
            << "col2im k=" << g.kernel << " pad=" << g.pad << " h=" << g.h
            << " w=" << g.w;
    }
}

// ----------------------------------------------------- pool and relu

TEST_F(BackendEquivalence, MaxPoolSignedZeroTiesAndNaN)
{
    // Windows full of -0.0/+0.0 probe the tie rule (first element in
    // scan order wins, so MAXPS's "b unless a > b" must be paired in
    // the same order); NaN lanes probe the unordered-compare path.
    const int batch = 2, c = 3, h = 8, w = 16;
    std::vector<float> x(static_cast<std::size_t>(batch) * c * h * w);
    Rng rng(303);
    fillMixed(x, rng);
    for (std::size_t i = 0; i < x.size(); i += 17)
        x[i] = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < x.size(); i += 5)
        x[i] = (i % 2) ? 0.0f : -0.0f;
    std::vector<float> y0(x.size() / 4), y1(x.size() / 4);
    ref_->maxPool2x2(x.data(), y0.data(), batch, c, h, w);
    vec_->maxPool2x2(x.data(), y1.data(), batch, c, h, w);
    EXPECT_TRUE(bitsEqual(y0.data(), y1.data(), y0.size()));
}

TEST_F(BackendEquivalence, ReluSignedZeroAndNaN)
{
    std::vector<float> x = {1.5f,
                            -2.0f,
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::infinity(),
                            1e-40f};
    Rng rng(404);
    for (int i = 0; i < 100; ++i)
        x.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
    std::vector<float> y0(x.size()), y1(x.size());
    ref_->relu(x.data(), y0.data(), x.size());
    vec_->relu(x.data(), y1.data(), x.size());
    EXPECT_TRUE(bitsEqual(y0.data(), y1.data(), y0.size()));
    // The contract maps -0.0 and NaN to +0.0 exactly.
    EXPECT_EQ(std::memcmp(&y1[3], &y1[2], 4), 0);
    EXPECT_FALSE(std::signbit(y1[3]));
    EXPECT_EQ(y1[4], 0.0f);
    // In-place operation is allowed.
    std::vector<float> z = x;
    vec_->relu(z.data(), z.data(), z.size());
    EXPECT_TRUE(bitsEqual(z.data(), y0.data(), z.size()));
}

/** Values that probe strict-`>` ties and unordered compares. */
void
fillTiesAndNaN(std::vector<float> &v, Rng &rng)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (auto &x : v) {
        switch (rng.uniformInt(10)) {
        case 0: x = 0.0f; break;
        case 1: x = -0.0f; break;
        case 2: x = nan; break;
        case 3: x = 1.0f; break; // exact ties between nonzero values
        case 4: x = rng.uniformInt(2) ? inf : -inf; break;
        case 5: x = 1e-40f; break; // subnormal
        default: x = static_cast<float>(rng.normal(0.0, 1.0));
        }
    }
}

TEST_F(BackendEquivalence, MaxPoolArgmaxAndBackwardTiesAndNaN)
{
    // Output widths below, at and around the 8-lane strips (ow = 1, 4,
    // 8, 9, 16, 17) on values full of ties, zeros of both signs and
    // NaN in every window position.
    const int shapes[][4] = {{2, 3, 2, 2},  {1, 4, 8, 8},   {2, 2, 4, 16},
                             {1, 3, 6, 18}, {2, 16, 32, 32}, {1, 2, 2, 34}};
    Rng rng(313);
    for (const auto &s : shapes) {
        const int batch = s[0], c = s[1], h = s[2], w = s[3];
        const std::size_t in = static_cast<std::size_t>(batch) * c * h * w;
        std::vector<float> x(in);
        fillTiesAndNaN(x, rng);
        std::vector<float> y0(in / 4), y1(in / 4), y2(in / 4), y3(in / 4);
        std::vector<std::uint8_t> arg0(in / 4), arg1(in / 4);
        ref_->maxPool2x2Argmax(x.data(), y0.data(), arg0.data(), batch, c,
                               h, w);
        vec_->maxPool2x2Argmax(x.data(), y1.data(), arg1.data(), batch, c,
                               h, w);
        EXPECT_TRUE(bitsEqual(y0.data(), y1.data(), y0.size()))
            << "pool argmax values w=" << w;
        EXPECT_EQ(arg0, arg1) << "pool argmax w=" << w;
        // The inference pool keeps the same elements.
        ref_->maxPool2x2(x.data(), y2.data(), batch, c, h, w);
        vec_->maxPool2x2(x.data(), y3.data(), batch, c, h, w);
        EXPECT_TRUE(bitsEqual(y0.data(), y2.data(), y0.size()));
        EXPECT_TRUE(bitsEqual(y0.data(), y3.data(), y0.size()))
            << "inference pool w=" << w;

        std::vector<float> dy(in / 4);
        fillTiesAndNaN(dy, rng);
        std::vector<float> dx0(in), dx1(in, 7.0f);
        ref_->maxPool2x2Backward(dy.data(), arg0.data(), dx0.data(), batch,
                                 c, h, w);
        vec_->maxPool2x2Backward(dy.data(), arg0.data(), dx1.data(), batch,
                                 c, h, w);
        EXPECT_TRUE(bitsEqual(dx0.data(), dx1.data(), in))
            << "pool backward w=" << w;
    }
}

TEST_F(BackendEquivalence, ReluMaskAndBackwardSignedZeroAndNaN)
{
    Rng rng(414);
    for (std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 1003u}) {
        std::vector<float> x(n), dy(n);
        fillTiesAndNaN(x, rng);
        fillTiesAndNaN(dy, rng);
        std::vector<float> y0(n), y1(n), y2(n);
        std::vector<std::uint8_t> m0((n + 7) / 8), m1((n + 7) / 8, 0xff);
        ref_->reluForwardMask(x.data(), y0.data(), m0.data(), n);
        vec_->reluForwardMask(x.data(), y1.data(), m1.data(), n);
        EXPECT_TRUE(bitsEqual(y0.data(), y1.data(), n)) << "n=" << n;
        EXPECT_EQ(m0, m1) << "relu mask n=" << n;
        // Same values as the inference relu, and mask == (y > 0).
        ref_->relu(x.data(), y2.data(), n);
        EXPECT_TRUE(bitsEqual(y0.data(), y2.data(), n));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(((m0[i / 8] >> (i % 8)) & 1u) != 0, y0[i] > 0.0f)
                << "i=" << i;
        // In place.
        std::vector<float> z = x;
        std::vector<std::uint8_t> mz((n + 7) / 8);
        vec_->reluForwardMask(z.data(), z.data(), mz.data(), n);
        EXPECT_TRUE(bitsEqual(z.data(), y0.data(), n));
        EXPECT_EQ(mz, m0);

        std::vector<float> dx0(n), dx1(n);
        ref_->reluBackward(dy.data(), m0.data(), dx0.data(), n);
        vec_->reluBackward(dy.data(), m0.data(), dx1.data(), n);
        EXPECT_TRUE(bitsEqual(dx0.data(), dx1.data(), n)) << "n=" << n;
        std::vector<float> dz = dy;
        vec_->reluBackward(dz.data(), m0.data(), dz.data(), n);
        EXPECT_TRUE(bitsEqual(dz.data(), dx0.data(), n));
    }
}

// ----------------------------------------------------- fault kernels

/** Clustered (MoRS-lite) map with `row_cells` cells per row. */
sram::VulnerabilityMap
clusteredMap(std::uint64_t seed, std::uint64_t index,
             std::uint64_t row_cells, double row_prob = 0.05,
             double col_prob = 0.02)
{
    sram::ClusterParams p;
    p.rowCells = row_cells;
    p.rowDefectProb = row_prob;
    p.colDefectProb = col_prob;
    return sram::VulnerabilityMap(seed, index, sram::MapModel::Clustered,
                                  p);
}

/** The fault kernels' maps: the i.i.d. one each test always used,
 *  then clustered maps whose rows are and are not 64-cell aligned. */
std::vector<sram::VulnerabilityMap>
faultKernelMaps(std::uint64_t seed, std::uint64_t index)
{
    return {sram::VulnerabilityMap(seed, index),
            clusteredMap(seed, index, 576), clusteredMap(seed, index, 100),
            clusteredMap(seed, index, 37, 0.1, 0.05)};
}

TEST_F(BackendEquivalence, FaultMapWordsFlipsAndRngOrder)
{
    const std::size_t kWords = 700; // not a multiple of 4 or 64
    const struct
    {
        FaultWindow win;
        double fail;
    } cases[] = {
        {{0, kWords * 16, 0}, 0.02},
        {{256, kWords * 16, 4096}, 0.05},
        // Wrapping walk: region smaller than the staged buffer.
        {{0, 4096, 4000}, 0.02},
        // Several laps of a region that is not a multiple of 64.
        {{300, 2000, 1500}, 0.05},
        {{0, kWords * 16, 0}, 0.0},  // no faults at all
        {{0, kWords * 16, 0}, 1.0},  // every cell faulty
    };
    for (const auto &map : faultKernelMaps(7, 3)) {
        Rng fill(505);
        for (const auto &tc : cases) {
            std::vector<std::int16_t> w0(kWords), w1(kWords);
            for (auto &v : w0)
                v = static_cast<std::int16_t>(fill.uniformInt(65536) -
                                              32768);
            w1 = w0;
            Rng r0(99), r1(99);
            const auto f0 = ref_->applyFaultMap(w0, map, tc.win,
                                                {tc.fail, 0.5}, r0);
            const auto f1 = vec_->applyFaultMap(w1, map, tc.win,
                                                {tc.fail, 0.5}, r1);
            EXPECT_EQ(f0, f1) << "fail_prob=" << tc.fail;
            EXPECT_EQ(std::memcmp(w0.data(), w1.data(),
                                  kWords * sizeof(std::int16_t)),
                      0)
                << "fail_prob=" << tc.fail;
            // Identical RNG consumption: the next draws must agree.
            EXPECT_EQ(r0.next(), r1.next()) << "fail_prob=" << tc.fail;
        }
    }
}

TEST_F(BackendEquivalence, FusedDequantMatchesReference)
{
    const std::size_t kWords = 513;
    const FixedPointCodec codec(12);
    for (const auto &map : faultKernelMaps(11, 1)) {
        Rng fill(606);
        for (double fail : {0.0, 0.03, 0.5}) {
            std::vector<std::int16_t> w0(kWords), w1(kWords);
            for (auto &v : w0)
                v = static_cast<std::int16_t>(fill.uniformInt(65536) -
                                              32768);
            w1 = w0;
            std::vector<float> out0(kWords), out1(kWords);
            const FaultWindow win{128, kWords * 16 + 64, 32};
            Rng r0(7), r1(7);
            const auto f0 = ref_->applyFaultMapDequant(
                w0, codec, out0.data(), map, win, {fail, 0.5}, r0);
            const auto f1 = vec_->applyFaultMapDequant(
                w1, codec, out1.data(), map, win, {fail, 0.5}, r1);
            EXPECT_EQ(f0, f1);
            EXPECT_EQ(std::memcmp(w0.data(), w1.data(),
                                  kWords * sizeof(std::int16_t)),
                      0);
            EXPECT_TRUE(bitsEqual(out0.data(), out1.data(), kWords))
                << "fail_prob=" << fail;
            EXPECT_EQ(r0.next(), r1.next());
        }
    }
}

// ----------------------------------------------------- quantization

/** Lengths around the 8- and 16-lane widths and their doubles. */
constexpr std::size_t kQuantLengths[] = {0,  1,  7,  8,  9,  15, 16,
                                         17, 31, 32, 33, 47, 100};

/** Inputs whose encoding is an edge case at `frac` fractional bits. */
std::vector<float>
quantizeEdgeInputs(int frac, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float step = std::ldexp(1.0f, -frac);
    std::vector<float> v = {0.0f,
                            -0.0f,
                            inf,
                            -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            -1e-40f,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
    // Round-half-even ties (0.5, 1.5, 2.5, ... steps, both signs) and
    // the saturation edges, just inside, on and just past them.
    for (float k : {0.5f, 1.5f, 2.5f, 3.5f, 100.5f, 32766.5f, 32767.0f,
                    32767.4f, 32767.5f, 32768.0f, 32768.5f, 32769.0f,
                    65536.0f}) {
        v.push_back(k * step);
        v.push_back(-k * step);
    }
    while (v.size() < 200)
        v.push_back(static_cast<float>(rng.normal(0.0, 4096.0)) * step);
    return v;
}

TEST_F(BackendEquivalence, QuantizeMatchesCodecOnEdgeCases)
{
    Rng rng(909);
    for (int frac = 0; frac <= 15; ++frac) {
        const FixedPointCodec codec(frac);
        const std::vector<float> x = quantizeEdgeInputs(frac, rng);
        std::vector<std::int16_t> expect(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            expect[i] = codec.encode(x[i]);
        EXPECT_EQ(codec.encode(std::numeric_limits<float>::quiet_NaN()), 0);
        for (const Backend *k : {ref_, vec_}) {
            // Every length, starting at every offset of a lane, so each
            // edge value lands in the vector body and in the tail.
            for (const std::size_t n : kQuantLengths) {
                for (std::size_t at = 0; at + n <= x.size(); at += 13) {
                    std::vector<std::int16_t> got(n, 0x5a5a);
                    k->quantize(x.data() + at, got.data(), n, codec);
                    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                           expect.begin() +
                                               static_cast<std::ptrdiff_t>(at)))
                        << k->name() << " frac=" << frac << " n=" << n
                        << " at=" << at;
                }
            }
        }
    }
}

TEST_F(BackendEquivalence, DequantizeMatchesCodecOnEveryWord)
{
    std::vector<std::int16_t> words(65536);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = static_cast<std::int16_t>(static_cast<int>(i) - 32768);
    for (int frac = 0; frac <= 15; ++frac) {
        const FixedPointCodec codec(frac);
        std::vector<float> expect(words.size());
        for (std::size_t i = 0; i < words.size(); ++i)
            expect[i] = codec.decode(words[i]);
        for (const Backend *k : {ref_, vec_}) {
            std::vector<float> got(words.size());
            k->dequantize(words.data(), got.data(), words.size(), codec);
            EXPECT_TRUE(bitsEqual(expect.data(), got.data(), got.size()))
                << k->name() << " frac=" << frac;
            for (const std::size_t n : kQuantLengths) {
                std::vector<float> part(n);
                k->dequantize(words.data() + 5, part.data(), n, codec);
                EXPECT_TRUE(bitsEqual(expect.data() + 5, part.data(), n))
                    << k->name() << " frac=" << frac << " n=" << n;
            }
        }
    }
}

TEST_F(BackendEquivalence, MaxAbsIgnoresNaNAsTheScalarFoldDoes)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    auto fold = [](const float *x, std::size_t n) {
        float m = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
            m = std::max(m, std::fabs(x[i]));
        return m;
    };
    Rng rng(515);
    std::vector<std::vector<float>> inputs = {
        std::vector<float>(40, nan),
        std::vector<float>(40, -0.0f),
        std::vector<float>(40, -std::numeric_limits<float>::denorm_min())};
    for (int pass = 0; pass < 6; ++pass) {
        std::vector<float> x(100);
        fillMixed(x, rng);
        for (std::size_t i = static_cast<std::size_t>(pass); i < x.size();
             i += 7)
            x[i] = (i % 3) ? nan : -nan;
        if (pass == 4)
            x[57] = -inf;
        if (pass == 5)
            x[3] = inf;
        inputs.push_back(x);
    }
    for (const Backend *k : {ref_, vec_}) {
        for (const std::vector<float> &x : inputs) {
            for (const std::size_t n : kQuantLengths) {
                for (std::size_t at = 0; at + n <= x.size(); at += 11) {
                    const float expect = fold(x.data() + at, n);
                    const float got = k->maxAbs(x.data() + at, n);
                    ASSERT_TRUE(bitsEqual(&expect, &got, 1))
                        << k->name() << " n=" << n << " at=" << at;
                }
            }
        }
    }
}

TEST_F(BackendEquivalence, FaultMapBitsInterleavedWindows)
{
    // The ECC path draws alternately from a data window and a check
    // window; equivalence must hold under that interleaving too. Data
    // groups are full 64-bit groups every other time (the vectorized
    // fast path), and the RNG state must agree after every call.
    const FaultWindow data{0, 1 << 14, 100};
    const FaultWindow check{1 << 14, 1 << 12, 9};
    for (const auto &map : faultKernelMaps(13, 2)) {
        for (double fail : {0.04, 0.3}) {
            Rng r0(3), r1(3), fill(707);
            for (int i = 0; i < 256; ++i) {
                std::uint64_t b0 = fill.next();
                std::uint64_t b1 = b0;
                const bool is_check = i % 2 != 0;
                const int nbits =
                    !is_check && i % 4 == 0
                        ? 64
                        : 1 + static_cast<int>(fill.uniformInt(64));
                FaultWindow w0 = is_check ? check : data;
                // Data groups march past the region's end, so some
                // straddle the wrap point.
                w0.startBit += static_cast<std::uint64_t>(i) * 64;
                const FaultWindow w1 = w0;
                const auto f0 = ref_->applyFaultMapBits(b0, nbits, map, w0,
                                                        {fail, 0.5}, r0);
                const auto f1 = vec_->applyFaultMapBits(b1, nbits, map, w1,
                                                        {fail, 0.5}, r1);
                EXPECT_EQ(f0, f1) << "i=" << i << " nbits=" << nbits;
                EXPECT_EQ(b0, b1) << "i=" << i << " nbits=" << nbits;
                Rng c0 = r0, c1 = r1;
                ASSERT_EQ(c0.next(), c1.next())
                    << "RNG diverged at i=" << i << " fail=" << fail;
            }
        }
    }
}

// ------------------------------------------------- packed fault maps

/** Every visit of `packed` equals the per-cell isFaulty() answer of
 *  its cell, and mask() agrees with test() across word boundaries. */
void
expectPackedMatchesPerCell(const sram::VulnerabilityMap &map,
                           std::uint64_t base, std::uint64_t region,
                           std::uint64_t start, std::uint64_t nbits,
                           double fail)
{
    SCOPED_TRACE(::testing::Message()
                 << "base " << base << " region " << region << " start "
                 << start << " nbits " << nbits << " fail " << fail);
    const sram::PackedFaultMap packed(map, base, region, start, nbits,
                                      fail);
    ASSERT_EQ(packed.numBits(), nbits);
    std::uint64_t expect_count = 0;
    std::uint64_t mismatches = 0;
    for (std::uint64_t j = 0; j < nbits; ++j) {
        const std::uint64_t cell = base + (start + j) % region;
        const bool faulty = map.isFaulty(cell, fail);
        if (packed.test(j) != faulty && ++mismatches <= 5)
            ADD_FAILURE() << "visit " << j << " cell " << cell;
        expect_count += faulty;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(packed.countFaulty(), expect_count);
    // mask() straddling 64-bit word boundaries, and reading past
    // numBits() (must read as zero).
    for (std::uint64_t j :
         {std::uint64_t{0}, std::uint64_t{60}, std::uint64_t{127},
          nbits > 5 ? nbits - 5 : std::uint64_t{0}}) {
        if (j >= nbits)
            continue;
        const unsigned nb = 64;
        const std::uint64_t m = packed.mask(j, nb);
        for (unsigned b = 0; b < nb; ++b) {
            const bool expect = j + b < nbits && packed.test(j + b);
            EXPECT_EQ(((m >> b) & 1u) != 0, expect)
                << "mask(" << j << ") bit " << b;
        }
    }
}

TEST(PackedFaultMapEdgeCases, MatchesPerCellQueries)
{
    // Heavy defects: coverage * defectBoost > 1, so hi saturates at
    // F / coverage and the background stratum never fails (lo = 0).
    const sram::VulnerabilityMap saturated = clusteredMap(17, 5, 576, 0.3,
                                                          0.2);
    ASSERT_EQ(saturated.stratumThresholds(0.05).lo, 0u);
    const sram::VulnerabilityMap maps[] = {
        sram::VulnerabilityMap(17, 5),
        clusteredMap(17, 5, 576),
        clusteredMap(17, 5, 100),
        clusteredMap(17, 5, 37),
        clusteredMap(17, 5, 576, 0.05, 0.0), // row defects only
        clusteredMap(17, 5, 100, 0.0, 0.1),  // column defects only
        saturated,
    };
    const struct
    {
        std::uint64_t base, region, start, nbits;
        double fail;
    } cases[] = {
        {0, 1000, 0, 1000, 0.05},    // non-multiple-of-64 count
        {64, 512, 500, 600, 0.05},   // wraps and revisits cells
        {0, 4096, 4090, 100, 0.05},  // starts at the wrap point
        {0, 4096, 4096, 200, 0.05},  // start a whole lap in: offset 0
        {0, 256, 0, 256, 0.0},       // no faulty cells
        {0, 256, 0, 256, 1.0},       // every cell faulty
        {7, 130, 129, 3, 0.5},       // tiny map, word-tail bits
        {1000, 37, 5, 7 * 37 + 3, 0.2}, // laps shorter than a word
        {0, 1 << 12, 0, 3 * (1 << 12) + 5, 0.05}, // word-aligned laps
    };
    for (const auto &map : maps) {
        SCOPED_TRACE(map.model() == sram::MapModel::Iid
                         ? std::string("iid")
                         : "clustered rowCells " +
                               std::to_string(map.cluster().rowCells));
        for (const auto &tc : cases)
            expectPackedMatchesPerCell(map, tc.base, tc.region, tc.start,
                                       tc.nbits, tc.fail);
        // Mid-region, mid-row start, 5+ laps of a region that is not
        // a multiple of 64 or of any row length above, at every
        // stratum regime (hi = 1 at F = 0.2 on the default maps).
        for (double fail : {0.0, 1e-4, 5e-3, 0.05, 0.2, 1.0})
            expectPackedMatchesPerCell(map, 300, 5003, 2501,
                                       5 * 5003 + 77, fail);
    }
}

// --------------------------------------- whole-network and MC digests

/** Small conv net exercising every backend kernel in one forward. */
Network
convNet(std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.addLayer<Conv2d>(3, 8, 5, 2, rng, "c1");
    net.addLayer<Relu>("r1");
    net.addLayer<MaxPool2d>("p1");
    net.addLayer<Conv2d>(8, 8, 3, 1, rng, "c2");
    net.addLayer<Relu>("r2");
    net.addLayer<MaxPool2d>("p2");
    net.addLayer<Flatten>("fl");
    net.addLayer<Dense>(8 * 4 * 4, 10, rng, "fc");
    return net;
}

/** Tiny CIFAR-shaped dataset (random pixels; determinism is what is
 *  under test, not accuracy). */
Dataset
tinyImages(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds;
    ds.images = Tensor({n, 3, 16, 16});
    ds.labels.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < ds.images.numel(); ++i)
        ds.images[i] = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto &l : ds.labels)
        l = static_cast<int>(rng.uniformInt(10));
    return ds;
}

TEST_F(BackendEquivalence, NetworkLogitsBitwiseIdentical)
{
    Network net = convNet(31);
    const Dataset ds = tinyImages(12, 32);

    ASSERT_TRUE(setActiveBackend("reference"));
    const Tensor ref_logits = net.forward(ds.images, /*train=*/false);
    ASSERT_TRUE(setActiveBackend("vectorized"));
    const Tensor vec_logits = net.forward(ds.images, /*train=*/false);
    setActiveBackend("auto");

    ASSERT_EQ(ref_logits.numel(), vec_logits.numel());
    EXPECT_TRUE(bitsEqual(ref_logits.data(), vec_logits.data(),
                          ref_logits.numel()));
}

TEST_F(BackendEquivalence, NetworkGradientsBitwiseIdentical)
{
    // One training forward + backward per backend: the input gradient
    // and every parameter gradient must agree bit for bit.
    const Dataset ds = tinyImages(12, 34);
    Tensor dx[2];
    std::vector<Tensor> grads[2];
    const char *const names[] = {"reference", "vectorized"};
    for (int b = 0; b < 2; ++b) {
        ASSERT_TRUE(setActiveBackend(names[b]));
        Network net = convNet(33);
        net.zeroGrads();
        const Tensor logits = net.forward(ds.images, /*train=*/true);
        Tensor grad;
        SoftmaxCrossEntropy().lossAndGrad(logits, ds.labels, grad);
        dx[b] = net.backward(grad);
        for (auto &p : net.params())
            grads[b].push_back(*p.grad);
    }
    setActiveBackend("auto");
    ASSERT_EQ(dx[0].numel(), dx[1].numel());
    EXPECT_TRUE(bitsEqual(dx[0].data(), dx[1].data(), dx[0].numel()));
    ASSERT_EQ(grads[0].size(), grads[1].size());
    for (std::size_t p = 0; p < grads[0].size(); ++p)
        EXPECT_TRUE(bitsEqual(grads[0][p].data(), grads[1][p].data(),
                              grads[0][p].numel()))
            << "param " << p;
}

TEST_F(BackendEquivalence, SgdEpochDigestsAlexNetAndFcDnn)
{
    // One SgdTrainer epoch of each paper network on each backend: the
    // trained weights and the epoch loss must be bit-identical.
    struct Case
    {
        const char *name;
        Network (*build)(Rng &);
        Dataset data;
    };
    const Case cases[] = {
        {"alexnet_cifar", buildAlexNetCifar, makeSyntheticCifar(128, 5)},
        {"fc_dnn", buildMnistFc, makeSyntheticMnist(256, 6)},
    };
    for (const Case &tc : cases) {
        std::uint64_t digest[2] = {0, 0};
        double loss[2] = {0.0, 0.0};
        const char *const names[] = {"reference", "vectorized"};
        for (int b = 0; b < 2; ++b) {
            ASSERT_TRUE(setActiveBackend(names[b]));
            Rng init(71);
            Network net = tc.build(init);
            TrainConfig cfg;
            cfg.epochs = 1;
            cfg.learningRate = 0.05;
            Rng rng(72);
            const auto stats = SgdTrainer(cfg).train(net, tc.data, rng);
            digest[b] = recovery::weightsDigest(net);
            loss[b] = stats.back().meanLoss;
        }
        setActiveBackend("auto");
        EXPECT_EQ(digest[0], digest[1]) << tc.name;
        EXPECT_EQ(std::memcmp(&loss[0], &loss[1], sizeof(double)), 0)
            << tc.name << ": " << loss[0] << " vs " << loss[1];
    }
}

TEST_F(BackendEquivalence, ExperimentDigestAndObsFingerprint)
{
    // The full Monte-Carlo pipeline — staging, fused corrupt +
    // dequantize, inference, map-order reduction — must produce
    // bit-identical statistics and observability fingerprints for
    // every (backend, thread count) combination.
    Network net = convNet(41);
    const Dataset ds = tinyImages(24, 42);

    struct Digest
    {
        fi::AccuracyPoint p;
        std::uint64_t fp;
    };
    std::vector<Digest> digests;
    for (const char *backend : {"reference", "vectorized"}) {
        for (int threads : {1, 8}) {
            ASSERT_TRUE(setActiveBackend(backend));
            fi::ExperimentConfig cfg;
            cfg.numMaps = 3;
            cfg.maxTestSamples = 16;
            cfg.numThreads = threads;
            fi::FaultInjectionRunner runner(net, ds, cfg);
            obs::Observability o;
            runner.attachObservability(&o);
            Digest d;
            d.p = runner.run(1e-4, fi::InjectionSpec::allWeights());
            runner.attachObservability(nullptr);
            d.fp = o.metrics.fingerprint();
            digests.push_back(d);
        }
    }
    setActiveBackend("auto");
    const auto &base = digests.front();
    for (std::size_t i = 1; i < digests.size(); ++i) {
        EXPECT_EQ(std::memcmp(&digests[i].p.meanAccuracy,
                              &base.p.meanAccuracy, sizeof(double)),
                  0)
            << "config " << i;
        EXPECT_EQ(std::memcmp(&digests[i].p.stddevAccuracy,
                              &base.p.stddevAccuracy, sizeof(double)),
                  0)
            << "config " << i;
        EXPECT_EQ(digests[i].p.minAccuracy, base.p.minAccuracy);
        EXPECT_EQ(digests[i].p.maxAccuracy, base.p.maxAccuracy);
        EXPECT_EQ(digests[i].p.meanBitFlips, base.p.meanBitFlips);
        EXPECT_EQ(digests[i].fp, base.fp) << "config " << i;
    }
}

} // namespace
} // namespace vboost::dnn
