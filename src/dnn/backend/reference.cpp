/**
 * @file
 * The scalar reference backend: the repo's original kernels, verbatim.
 * Every other backend is defined as "bitwise-identical to this one on
 * finite inputs" (DESIGN.md §12), so these loops are the semantic
 * ground truth — keep them boring.
 */

#include <algorithm>
#include <cstring>

#include "dnn/backend/impl.hpp"
#include "dnn/tensor.hpp"

namespace vboost::dnn {

namespace {

class ReferenceBackend final : public Backend
{
  public:
    std::string_view name() const override { return "reference"; }

    void
    gemm(const float *a, const float *b, float *c, int m, int k, int n,
         bool accumulate) const override
    {
        // The free function in tensor.cpp (i-k-j loop with zero-skip).
        vboost::dnn::gemm(a, b, c, m, k, n, accumulate);
    }

    void
    gemmTransA(const float *a, const float *b, float *c, int m, int k,
               int n, bool accumulate) const override
    {
        if (!accumulate)
            std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) *
                                  static_cast<std::size_t>(n));
        // C[m,n] = sum_kk A[kk,m]^T B[kk,n]; A row kk is contiguous in m.
        for (int kk = 0; kk < k; ++kk) {
            const float *arow = a + static_cast<std::size_t>(kk) * m;
            const float *brow = b + static_cast<std::size_t>(kk) * n;
            for (int i = 0; i < m; ++i) {
                const float aki = arow[i];
                if (aki == 0.0f)
                    continue;
                float *crow = c + static_cast<std::size_t>(i) * n;
                for (int j = 0; j < n; ++j)
                    // vblint: assoc-ok(k advances in fixed index order)
                    crow[j] += aki * brow[j];
            }
        }
    }

    void
    gemmTransB(const float *a, const float *b, float *c, int m, int k,
               int n, bool accumulate) const override
    {
        if (!accumulate)
            std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) *
                                  static_cast<std::size_t>(n));
        // C[i,j] = dot(A row i, B row j): both contiguous in k.
        for (int i = 0; i < m; ++i) {
            const float *arow = a + static_cast<std::size_t>(i) * k;
            float *crow = c + static_cast<std::size_t>(i) * n;
            for (int j = 0; j < n; ++j) {
                const float *brow = b + static_cast<std::size_t>(j) * k;
                float acc = 0.0f;
                for (int kk = 0; kk < k; ++kk)
                    // vblint: assoc-ok(dot product in fixed k order)
                    acc += arow[kk] * brow[kk];
                // vblint: assoc-ok(single accumulated dot per (i,j) cell)
                crow[j] += acc;
            }
        }
    }

    void
    im2col(const float *image, const ConvGeom &g,
           std::vector<float> &cols) const override
    {
        const int out_h = g.outH();
        const int out_w = g.outW();
        const std::size_t spatial = g.spatial();
        cols.resize(static_cast<std::size_t>(g.patch()) * spatial);
        std::size_t row = 0;
        for (int c = 0; c < g.inCh; ++c) {
            const float *chan =
                image + static_cast<std::size_t>(c) *
                            static_cast<std::size_t>(g.h) *
                            static_cast<std::size_t>(g.w);
            for (int ki = 0; ki < g.kernel; ++ki) {
                for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                    float *dst = cols.data() + row * spatial;
                    std::size_t idx = 0;
                    for (int oi = 0; oi < out_h; ++oi) {
                        const int ii = oi + ki - g.pad;
                        for (int oj = 0; oj < out_w; ++oj, ++idx) {
                            const int jj = oj + kj - g.pad;
                            dst[idx] = (ii >= 0 && ii < g.h && jj >= 0 &&
                                        jj < g.w)
                                           ? chan[static_cast<std::size_t>(
                                                      ii) *
                                                      static_cast<
                                                          std::size_t>(
                                                          g.w) +
                                                  static_cast<std::size_t>(
                                                      jj)]
                                           : 0.0f;
                        }
                    }
                }
            }
        }
    }

    void
    col2im(const float *cols, float *dx, const ConvGeom &g) const override
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
                for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                    const float *src = cols + row * spatial;
                    std::size_t idx = 0;
                    for (int oi = 0; oi < out_h; ++oi) {
                        const int ii = oi + ki - g.pad;
                        for (int oj = 0; oj < out_w; ++oj, ++idx) {
                            const int jj = oj + kj - g.pad;
                            if (ii < 0 || ii >= g.h || jj < 0 || jj >= g.w)
                                continue;
                            const std::size_t at =
                                static_cast<std::size_t>(ii) *
                                    static_cast<std::size_t>(g.w) +
                                static_cast<std::size_t>(jj);
                            // vblint: assoc-ok(each dx element adds its rows in fixed (c, ki, kj) order)
                            chan[at] += src[idx];
                        }
                    }
                }
            }
        }
    }

    void
    im2colConv(const float *image, const float *weights, const float *bias,
               float *out, const ConvGeom &g,
               std::vector<float> &cols) const override
    {
        const std::size_t spatial = g.spatial();
        im2col(image, g, cols);
        vboost::dnn::gemm(weights, cols.data(), out, g.outCh, g.patch(),
                          static_cast<int>(spatial));
        for (int oc = 0; oc < g.outCh; ++oc) {
            float *chan = out + static_cast<std::size_t>(oc) * spatial;
            const float b = bias[static_cast<std::size_t>(oc)];
            for (std::size_t i = 0; i < spatial; ++i)
                chan[i] += b; // vblint: assoc-ok(single bias add per element, no reduction)
        }
    }

    void
    maxPool2x2(const float *x, float *y, int batch, int c, int h,
               int w) const override
    {
        // The layer's original scan: best starts at the (0,0) corner
        // and only a strictly greater value replaces it, so ties keep
        // the earliest element.
        const int oh = h / 2, ow = w / 2;
        std::size_t oidx = 0;
        for (int n = 0; n < batch; ++n) {
            for (int ch = 0; ch < c; ++ch) {
                const float *plane =
                    x + (static_cast<std::size_t>(n) * c + ch) *
                            static_cast<std::size_t>(h) * w;
                for (int i = 0; i < oh; ++i) {
                    const float *r0 = plane + static_cast<std::size_t>(
                                                  2 * i) * w;
                    const float *r1 = r0 + w;
                    for (int j = 0; j < ow; ++j, ++oidx) {
                        float best = r0[2 * j];
                        if (r0[2 * j + 1] > best)
                            best = r0[2 * j + 1];
                        if (r1[2 * j] > best)
                            best = r1[2 * j];
                        if (r1[2 * j + 1] > best)
                            best = r1[2 * j + 1];
                        y[oidx] = best;
                    }
                }
            }
        }
    }

    void
    maxPool2x2Argmax(const float *x, float *y, std::uint8_t *argmax,
                     int batch, int c, int h, int w) const override
    {
        const int oh = h / 2, ow = w / 2;
        std::size_t oidx = 0;
        for (int n = 0; n < batch; ++n) {
            for (int ch = 0; ch < c; ++ch) {
                const float *plane =
                    x + (static_cast<std::size_t>(n) * c + ch) *
                            static_cast<std::size_t>(h) * w;
                for (int i = 0; i < oh; ++i) {
                    for (int j = 0; j < ow; ++j, ++oidx) {
                        float best = plane[static_cast<std::size_t>(2 * i) *
                                               w +
                                           2 * j];
                        int best_di = 0, best_dj = 0;
                        for (int di = 0; di < 2; ++di) {
                            for (int dj = 0; dj < 2; ++dj) {
                                const float v =
                                    plane[static_cast<std::size_t>(2 * i +
                                                                   di) *
                                              w +
                                          2 * j + dj];
                                if (v > best) {
                                    best = v;
                                    best_di = di;
                                    best_dj = dj;
                                }
                            }
                        }
                        y[oidx] = best;
                        argmax[oidx] =
                            static_cast<std::uint8_t>(best_di * 2 + best_dj);
                    }
                }
            }
        }
    }

    void
    maxPool2x2Backward(const float *dy, const std::uint8_t *argmax,
                       float *dx, int batch, int c, int h,
                       int w) const override
    {
        std::fill(dx, dx + static_cast<std::size_t>(batch) * c * h * w,
                  0.0f);
        const int oh = h / 2, ow = w / 2;
        std::size_t oidx = 0;
        for (int n = 0; n < batch; ++n) {
            for (int ch = 0; ch < c; ++ch) {
                float *plane = dx + (static_cast<std::size_t>(n) * c + ch) *
                                        static_cast<std::size_t>(h) * w;
                for (int i = 0; i < oh; ++i) {
                    for (int j = 0; j < ow; ++j, ++oidx) {
                        const int di = argmax[oidx] / 2;
                        const int dj = argmax[oidx] % 2;
                        const std::size_t at =
                            static_cast<std::size_t>(2 * i + di) * w + 2 * j +
                            dj;
                        // vblint: assoc-ok(one add per dx element: windows do not overlap)
                        plane[at] += dy[oidx];
                    }
                }
            }
        }
    }

    void
    relu(const float *x, float *y, std::size_t n) const override
    {
        for (std::size_t i = 0; i < n; ++i)
            y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }

    void
    reluForwardMask(const float *x, float *y, std::uint8_t *mask,
                    std::size_t n) const override
    {
        std::memset(mask, 0, (n + 7) / 8);
        for (std::size_t i = 0; i < n; ++i) {
            if (x[i] > 0.0f) {
                y[i] = x[i];
                mask[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
            } else {
                y[i] = 0.0f;
            }
        }
    }

    void
    reluBackward(const float *dy, const std::uint8_t *mask, float *dx,
                 std::size_t n) const override
    {
        for (std::size_t i = 0; i < n; ++i)
            dx[i] = (mask[i / 8] >> (i % 8)) & 1u ? dy[i] : 0.0f;
    }

    std::uint64_t
    applyFaultMap(std::span<std::int16_t> words,
                  const sram::VulnerabilityMap &map, const FaultWindow &win,
                  sram::FaultParams params, Rng &rng) const override
    {
        if (params.failProb <= 0.0 || params.flipProb <= 0.0)
            return 0;
        std::uint64_t flipped = 0;
        std::uint64_t bit = win.startBit % win.regionBits;
        for (auto &word : words) {
            auto raw = static_cast<std::uint16_t>(word);
            for (int b = 0; b < 16; ++b) {
                const std::uint64_t cell = win.regionBase + bit;
                if (map.isFaulty(cell, params.failProb) &&
                    rng.bernoulli(params.flipProb)) {
                    raw ^= static_cast<std::uint16_t>(1u << b);
                    ++flipped;
                }
                if (++bit == win.regionBits)
                    bit = 0;
            }
            word = static_cast<std::int16_t>(raw);
        }
        return flipped;
    }

    std::uint64_t
    applyFaultMapDequant(std::span<std::int16_t> words,
                         const FixedPointCodec &codec, float *out,
                         const sram::VulnerabilityMap &map,
                         const FaultWindow &win, sram::FaultParams params,
                         Rng &rng) const override
    {
        const std::uint64_t flipped =
            applyFaultMap(words, map, win, params, rng);
        for (std::size_t i = 0; i < words.size(); ++i)
            out[i] = codec.decode(words[i]);
        return flipped;
    }

    std::uint64_t
    applyFaultMapBits(std::uint64_t &bits, int nbits,
                      const sram::VulnerabilityMap &map,
                      const FaultWindow &win, sram::FaultParams params,
                      Rng &rng) const override
    {
        // No flipProb early-out: the ECC staging loop historically
        // consumed one bernoulli per faulty cell even at flipProb 0,
        // and downstream draws must see an unchanged RNG stream.
        if (params.failProb <= 0.0)
            return 0;
        std::uint64_t flipped = 0;
        for (int b = 0; b < nbits; ++b) {
            const std::uint64_t cell =
                win.regionBase +
                (win.startBit + static_cast<std::uint64_t>(b)) %
                    win.regionBits;
            if (map.isFaulty(cell, params.failProb) &&
                rng.bernoulli(params.flipProb)) {
                bits ^= 1ull << b;
                ++flipped;
            }
        }
        return flipped;
    }
};

} // namespace

const Backend &
referenceBackend()
{
    static const ReferenceBackend kReference;
    return kReference;
}

} // namespace vboost::dnn
