/**
 * @file
 * Internal wiring between the backend registry (backend.cpp) and the
 * concrete implementations (reference.cpp, vectorized.cpp). Not part
 * of the public backend API. Every instruction-set tier of a kernel
 * that has more than one is declared here, so the equivalence suite
 * can check each tier the CPU supports against the reference, not
 * only the one the vectorized backend dispatches to.
 */

#ifndef VBOOST_DNN_BACKEND_IMPL_HPP
#define VBOOST_DNN_BACKEND_IMPL_HPP

#include "dnn/backend/backend.hpp"

namespace vboost::dnn::detail {

/** The AVX2 backend instance, or nullptr when this build or this CPU
 *  lacks AVX2 support. */
const Backend *vectorizedBackendIfAvailable();

/** Signature shared by the GEMM tiers (gemmAvx2, gemmAvx512). */
using GemmKernel = void (*)(const float *a, const float *b, float *c,
                            int m, int k, int n, bool accumulate);

/**
 * AVX2 GEMM (8/16-column strips, 4-row register tiles), bitwise-equal
 * to the reference gemm on finite inputs. Only call when
 * vectorizedBackendIfAvailable() is non-null.
 */
void gemmAvx2(const float *a, const float *b, float *c, int m, int k,
              int n, bool accumulate);

/** AVX2 im2col (row-segment copies), byte-identical to the scalar
 *  expansion. Same availability rule as gemmAvx2. */
void im2colAvx2(const float *image, const ConvGeom &g,
                std::vector<float> &cols);

/**
 * gemmTransA through one GEMM tier: A is transposed into per-call
 * scratch and `gemm` runs on it with C in the accumulator chain, so
 * each element keeps the reference's ascending-k chain. Same
 * availability rule as gemmAvx2 (the transpose uses AVX2).
 */
void gemmTransAVia(GemmKernel gemm, const float *a, const float *b,
                   float *c, int m, int k, int n, bool accumulate);

/**
 * gemmTransB through one GEMM tier: the smaller operand is transposed
 * into per-call scratch, `gemm` computes every dot product as a chain
 * from +0.0 into a temporary, and one add per element folds it into
 * C. Same availability rule as gemmAvx2.
 */
void gemmTransBVia(GemmKernel gemm, const float *a, const float *b,
                   float *c, int m, int k, int n, bool accumulate);

/**
 * The SIMD GEMM tiers drop the reference's zero skip (`if (aik == 0)
 * continue`), which is an identity on every accumulator except one
 * that holds -0.0: adding a skipped +0.0 product would turn it into
 * +0.0. An accumulating call records its -0.0 seeds here first ...
 */
std::vector<std::size_t> negativeZeroSeeds(const float *c,
                                           std::size_t count);

/** ... and afterwards recomputes those elements with the reference
 *  chain (seed, then ascending k, zero A elements skipped). A is
 *  [m, k] and B [k, n], row-major. */
void replayZeroSkipChains(const std::vector<std::size_t> &seeds,
                          const float *a, const float *b, float *c, int k,
                          int n);

/** True when this build and this CPU support the AVX-512 GEMM path
 *  (vectorized512.cpp). */
bool avx512GemmAvailable();

/**
 * AVX-512 GEMM with the same bitwise contract as every other backend
 * kernel: per-element accumulation in ascending-k order, separate
 * multiply and add (no FMA), masked tails touching exact element
 * subsets. Only call when avx512GemmAvailable().
 */
void gemmAvx512(const float *a, const float *b, float *c, int m, int k,
                int n, bool accumulate);

/**
 * AVX-512 im2col producing byte-identical `cols` to the scalar
 * expansion (copies and +0.0 padding only — no arithmetic). Requires
 * avx512GemmAvailable() and g.outW() <= 128 (the per-row segment-mask
 * cache is fixed-size); callers fall back to the AVX2 path otherwise.
 */
void im2colAvx512(const float *image, const ConvGeom &g,
                  std::vector<float> &cols);

} // namespace vboost::dnn::detail

#endif // VBOOST_DNN_BACKEND_IMPL_HPP
