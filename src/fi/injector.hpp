/**
 * @file
 * Fault injection into a trained network's int16 storage image: the
 * C++ counterpart of the paper's TensorFlow fault-injection framework
 * (Sec. 2 and Sec. 5.1). Weights (all layers, or one selected layer)
 * and/or input images are quantized to their SRAM storage words,
 * corrupted under a vulnerability map at the bit failure probability
 * of the operating voltage, and dequantized for inference.
 *
 * Cell layout mirrors the accelerator: weight bits map into the weight
 * memory's cell region modulo its capacity (layers are staged through
 * the same physical SRAM), and input bits map into the input memory's
 * disjoint cell region, so every Monte-Carlo map corrupts exactly the
 * cells a real staged execution would exercise.
 */

#ifndef VBOOST_FI_INJECTOR_HPP
#define VBOOST_FI_INJECTOR_HPP

#include <cstdint>
#include <vector>

#include "dnn/network.hpp"
#include "resilience/resilient_memory.hpp"
#include "sram/clean_word_index.hpp"
#include "sram/ecc.hpp"
#include "sram/fault_map.hpp"

namespace vboost::fi {

/** What to inject faults into. */
struct InjectionSpec
{
    /** Corrupt weight tensors. */
    bool injectWeights = true;
    /** Restrict weight corruption to this weight-layer index
     *  (-1 = all layers). Index k is the k-th weight tensor. */
    int onlyLayer = -1;
    /** Corrupt the input images. */
    bool injectInputs = false;
    /** Per-read flip probability of a faulty cell (paper: 0.5). */
    double flipProb = 0.5;

    /** Named presets matching the paper's Fig. 2 curves. */
    static InjectionSpec allWeights() { return {}; }
    static InjectionSpec singleLayer(int layer)
    { return {true, layer, false, 0.5}; }
    static InjectionSpec inputsOnly()
    { return {false, -1, true, 0.5}; }
};

/** Physical cell regions the logical data maps onto. */
struct MemoryLayout
{
    /** Weight memory capacity in bits (128 KB for Dante). */
    std::uint64_t weightRegionBits = 128ull * 1024 * 8;
    /** Input memory capacity in bits (16 KB for Dante). */
    std::uint64_t inputRegionBits = 16ull * 1024 * 8;

    /** First cell of the input region (after the weight region). */
    std::uint64_t inputRegionBase() const { return weightRegionBits; }

    /** First cell of the ECC check-bit region (used only by the ECC
     *  ablation; sized at 1/8 of the weight region per SECDED). */
    std::uint64_t parityRegionBase() const
    { return weightRegionBits + inputRegionBits; }

    /** ECC check-bit region size in bits. */
    std::uint64_t parityRegionBits() const
    { return weightRegionBits / 8; }
};

/**
 * Produce a corrupted copy of `src`'s parameters in `dst` (both must
 * be structurally identical; build `dst` with the same zoo function).
 * Biases and non-targeted layers are copied verbatim through their
 * quantized round trip so the only difference is the injected faults.
 *
 * @return number of bit flips applied.
 */
std::uint64_t corruptNetwork(dnn::Network &dst, dnn::Network &src,
                             const sram::VulnerabilityMap &map,
                             double fail_prob, const InjectionSpec &spec,
                             const MemoryLayout &layout, Rng &rng);

/**
 * Per-layer variant of corruptNetwork: weight layer k is corrupted at
 * fail_prob_by_layer[k]. This models the paper's differential boost
 * configurations (Table 2, Boost_diff1/Boost_diff2), where each
 * layer's weight accesses happen at a different boosted voltage and
 * therefore a different bit failure probability.
 *
 * @return number of bit flips applied.
 */
std::uint64_t corruptNetworkPerLayer(
    dnn::Network &dst, dnn::Network &src,
    const sram::VulnerabilityMap &map,
    const std::vector<double> &fail_prob_by_layer, double flip_prob,
    const MemoryLayout &layout, Rng &rng);

/**
 * SECDED-protected variant of corruptNetwork (all-weights target):
 * every 64-bit group of weight storage is protected by Hamming(72,64)
 * check bits that live in their own (equally faulty) cell region.
 * Single-bit errors per codeword are corrected; double errors are
 * detected but passed through; triple+ errors may miscorrect. This is
 * the conventional low-voltage mitigation the ECC ablation bench
 * compares against boosting.
 *
 * @param stats optional decode statistics output.
 * @return number of raw bit flips applied (before correction).
 */
std::uint64_t corruptNetworkEcc(dnn::Network &dst, dnn::Network &src,
                                const sram::VulnerabilityMap &map,
                                double fail_prob, double flip_prob,
                                const MemoryLayout &layout, Rng &rng,
                                sram::EccStats *stats = nullptr);

/**
 * Closed-loop variant of corruptNetworkEcc: the weight image is staged
 * word by word through a ResilientMemory — write, then read back
 * through the full resilient pipeline (ECC decode, bounded retry with
 * boost escalation, standing-level raises, row sparing) at supply
 * `vdd`. The decoded data feeds inference; retry / escalation /
 * quarantine counters and energy accumulate inside `rmem` (snapshot()
 * after the call). Layers wrap through the memory modulo its capacity,
 * mirroring the staged execution of the other injectors.
 *
 * @return residual flipped bits (after correction and retries) —
 *         the corruption that actually reaches inference.
 */
std::uint64_t corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                                      resilience::ResilientMemory &rmem,
                                      Volt vdd,
                                      const sram::VulnerabilityMap &map);

/**
 * As above, reading through a clean-word index of `map` over rmem's
 * memory (ResilientMemory::cleanWordIndex): words with no faulty cell
 * skip the per-cell fault draws. Bitwise identical results, counters
 * and energies; fatals if the index belongs to another map or memory.
 */
std::uint64_t corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                                      resilience::ResilientMemory &rmem,
                                      Volt vdd,
                                      const sram::VulnerabilityMap &map,
                                      const sram::CleanWordIndex &index);

/**
 * Corrupt a batch of input images through the input-memory cell
 * region. Every image is staged through the same physical SRAM, so
 * image bits map modulo the input region size.
 *
 * @return corrupted copy of the batch.
 */
dnn::Tensor corruptInputs(const dnn::Tensor &images,
                          const sram::VulnerabilityMap &map,
                          double fail_prob, double flip_prob,
                          const MemoryLayout &layout, Rng &rng);

} // namespace vboost::fi

#endif // VBOOST_FI_INJECTOR_HPP
