/**
 * @file
 * Swappable compute backends (DESIGN.md §12). A Backend owns the hot
 * kernels of the repro — forward GEMM, the im2col convolution, the
 * training kernels of the backward pass (transposed GEMMs, col2im,
 * ReLU and max-pool forward-with-mask and backward) and the fault-map
 * application / fused corrupt-and-dequantize kernels the
 * fault-injection staging loop runs — so scalar reference code and
 * SIMD implementations can be exchanged freely.
 *
 * Contract: every backend is BITWISE-IDENTICAL to the reference
 * backend on finite inputs, at every thread count, including the
 * per-faulty-cell RNG consumption order of the fault kernels. This is
 * the §7 determinism bar: swapping backends may change speed, never a
 * single output bit. tests/test_backend.cpp (ctest `backend_equivalence`)
 * enforces it.
 *
 * Backends are stateless and const; all methods are safe to call from
 * many threads concurrently. The process-wide active backend must be
 * selected before worker threads start (set-before-threads contract).
 */

#ifndef VBOOST_DNN_BACKEND_BACKEND_HPP
#define VBOOST_DNN_BACKEND_BACKEND_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "sram/fault_map.hpp"

namespace vboost::dnn {

/** Geometry of one stride-1, symmetric-pad 2-D convolution. */
struct ConvGeom
{
    int inCh = 0;   ///< input channels
    int outCh = 0;  ///< output channels
    int kernel = 0; ///< square kernel size
    int pad = 0;    ///< symmetric zero padding
    int h = 0;      ///< input height
    int w = 0;      ///< input width

    int outH() const { return h + 2 * pad - kernel + 1; }
    int outW() const { return w + 2 * pad - kernel + 1; }
    /** Patch length inCh*k*k (the GEMM K dimension). */
    int patch() const { return inCh * kernel * kernel; }
    /** Output spatial size (the GEMM N dimension). */
    std::size_t spatial() const
    {
        return static_cast<std::size_t>(outH()) *
               static_cast<std::size_t>(outW());
    }
};

/**
 * Wrapped-region fault window: which SRAM cells a staged buffer's bits
 * visit. Visit j touches cell regionBase + (startBit + j) mod
 * regionBits, matching fi's staging walk.
 */
struct FaultWindow
{
    std::uint64_t regionBase = 0;
    std::uint64_t regionBits = 0;
    std::uint64_t startBit = 0;
};

class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry name ("reference", "vectorized"). */
    virtual std::string_view name() const = 0;

    /** C[m,n] (+)= A[m,k] B[k,n], row-major. Per-element accumulation
     *  is in ascending-k order in every backend (bitwise contract);
     *  products whose A element is zero are skipped. */
    virtual void gemm(const float *a, const float *b, float *c, int m,
                      int k, int n, bool accumulate) const = 0;

    /** C[m,n] (+)= A^T B with A stored [k, m]: the same per-element
     *  chain as gemm() on the transposed A, zero skip included. */
    virtual void gemmTransA(const float *a, const float *b, float *c,
                            int m, int k, int n, bool accumulate) const = 0;

    /** C[m,n] (+)= A B^T with B stored [n, k]. Each element is one dot
     *  product, accumulated from +0.0 in ascending k without a zero
     *  skip, then added to C in a single add. */
    virtual void gemmTransB(const float *a, const float *b, float *c,
                            int m, int k, int n, bool accumulate) const = 0;

    /**
     * One-image convolution: expand `image` ([inCh, h, w]) into
     * `cols` ([patch, spatial]) and compute
     * out = W cols + bias, out [outCh, spatial].
     * `cols` is caller-owned scratch resized as needed (so per-thread
     * buffers can be reused across images).
     */
    virtual void im2colConv(const float *image, const float *weights,
                            const float *bias, float *out,
                            const ConvGeom &g,
                            std::vector<float> &cols) const = 0;

    /** im2col alone (shared by Conv2d::backward's col2im pairing). */
    virtual void im2col(const float *image, const ConvGeom &g,
                        std::vector<float> &cols) const = 0;

    /**
     * The adjoint of im2col: add every column entry of `cols`
     * ([patch, spatial]) into the image position it was copied from,
     * dx ([inCh, h, w]) += scatter(cols). Each dx element receives its
     * adds in (c, ki, kj) row order.
     */
    virtual void col2im(const float *cols, float *dx,
                        const ConvGeom &g) const = 0;

    /**
     * 2x2 stride-2 max pooling over NCHW activations (inference path;
     * the training path keeps the layer's argmax bookkeeping). Ties —
     * which only matter bitwise for -0.0 vs +0.0 — resolve to the
     * earliest element in (di, dj) scan order, exactly like the
     * reference `v > best` fold.
     */
    virtual void maxPool2x2(const float *x, float *y, int batch, int c,
                            int h, int w) const = 0;

    /**
     * Training-path max pool: maxPool2x2's outputs plus, per output,
     * the window position the reference's strict-`>` scan keeps
     * (argmax = 2 di + dj, one byte per output).
     */
    virtual void maxPool2x2Argmax(const float *x, float *y,
                                  std::uint8_t *argmax, int batch, int c,
                                  int h, int w) const = 0;

    /**
     * Max-pool backward: writes every element of dx ([batch, c, h, w],
     * h and w even). The kept window position gets +0.0 + dy (the
     * reference adds into a zeroed dx); the other three get +0.0.
     */
    virtual void maxPool2x2Backward(const float *dy,
                                    const std::uint8_t *argmax, float *dx,
                                    int batch, int c, int h,
                                    int w) const = 0;

    /** Elementwise y[i] = x[i] > 0 ? x[i] : +0.0f (so -0.0 and NaN
     *  inputs both map to +0.0). In-place (y == x) is allowed. */
    virtual void relu(const float *x, float *y, std::size_t n) const = 0;

    /**
     * Training-path ReLU: relu() plus its mask, bit i of byte i / 8
     * (LSB first, (n + 7) / 8 bytes, unused high bits zero) set exactly
     * when y[i] > 0 — which holds exactly when x[i] > 0, so -0.0 and
     * NaN inputs are masked off. In-place (y == x) is allowed.
     */
    virtual void reluForwardMask(const float *x, float *y,
                                 std::uint8_t *mask,
                                 std::size_t n) const = 0;

    /** ReLU backward: dx[i] = mask bit i ? dy[i] : +0.0f. In-place
     *  (dx == dy) is allowed. */
    virtual void reluBackward(const float *dy, const std::uint8_t *mask,
                              float *dx, std::size_t n) const = 0;

    /**
     * Corrupt staged 16-bit words through a fault window: bit b of
     * word w is visit 16*w + b; each faulty visited cell flips with
     * params.flipProb. RNG is consumed exactly once per faulty visited
     * cell, in visit order (bitwise contract with the reference
     * scalar loop). @return bits flipped.
     */
    virtual std::uint64_t applyFaultMap(std::span<std::int16_t> words,
                                        const sram::VulnerabilityMap &map,
                                        const FaultWindow &win,
                                        sram::FaultParams params,
                                        Rng &rng) const = 0;

    /**
     * The fused fault-injection kernel: corrupt `words` in place as
     * applyFaultMap, then dequantize every (possibly corrupted) word
     * through `codec` into `out` (words.size() floats). With
     * params.failProb == 0 this is a pure vectorizable decode — the
     * round-trip path untargeted layers take. @return bits flipped.
     */
    virtual std::uint64_t
    applyFaultMapDequant(std::span<std::int16_t> words,
                         const FixedPointCodec &codec, float *out,
                         const sram::VulnerabilityMap &map,
                         const FaultWindow &win, sram::FaultParams params,
                         Rng &rng) const = 0;

    /**
     * Corrupt the low `nbits` (1..64) of one staged word — the ECC
     * path's data/check groups, whose RNG draws interleave across two
     * windows. Visit j of this call is window visit startBit + j.
     * @return bits flipped.
     */
    virtual std::uint64_t applyFaultMapBits(std::uint64_t &bits, int nbits,
                                            const sram::VulnerabilityMap &map,
                                            const FaultWindow &win,
                                            sram::FaultParams params,
                                            Rng &rng) const = 0;
};

/** The scalar reference backend (always available). */
const Backend &referenceBackend();

/** Backend names in registry order, available ones only. */
std::vector<std::string_view> availableBackends();

/** Look up a backend by name; nullptr when unknown or unavailable on
 *  this machine (e.g. "vectorized" without AVX2). "auto" resolves to
 *  the fastest available backend. */
const Backend *findBackend(std::string_view name);

/**
 * Process-wide active backend, used by the Dense/Conv2d/MaxPool2d/Relu
 * forward and backward passes and the fi staging loop. Defaults to
 * "auto". Set-before-threads: call setActiveBackend() only while
 * single-threaded.
 */
const Backend &activeBackend();

/** Select the active backend; false when the name is unknown or the
 *  backend is unavailable on this machine (active selection kept). */
bool setActiveBackend(std::string_view name);

/** Widest instruction-set tier "auto" runs on this machine: "avx512",
 *  "avx2" or "scalar" (provenance for bench artifacts). */
std::string_view autoIsaTier();

} // namespace vboost::dnn

#endif // VBOOST_DNN_BACKEND_BACKEND_HPP
