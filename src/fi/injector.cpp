#include "fi/injector.hpp"

#include <bit>
#include <utility>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/quantize.hpp"

namespace vboost::fi {

namespace {

/**
 * The open-loop staging walk: quantize each source weight layer,
 * corrupt it at fail_prob_of(l) and decode it into the destination
 * layer in one backend pass (the fused corrupt-and-infer kernel,
 * DESIGN.md §12). Layer bits follow one another in the weight region,
 * wrapping modulo its size (staged tiles reuse the physical memory).
 * F = 0 makes the kernel the pure quantization round trip. Biases are
 * not touched.
 */
template <typename FailProbOf>
std::uint64_t
stageOpenLoop(std::vector<dnn::ParamRef> &src_weights,
              std::vector<dnn::ParamRef> &dst_weights,
              const sram::VulnerabilityMap &map, FailProbOf fail_prob_of,
              double flip_prob, const MemoryLayout &layout, Rng &rng)
{
    const dnn::Backend &backend = dnn::activeBackend();
    std::uint64_t flipped = 0;
    std::uint64_t bit_cursor = 0;
    for (std::size_t l = 0; l < src_weights.size(); ++l) {
        auto q = dnn::quantize(*src_weights[l].value);
        dnn::Tensor decoded(q.shape);
        flipped += backend.applyFaultMapDequant(
            q.words, q.codec, decoded.data(), map,
            {0, layout.weightRegionBits, bit_cursor},
            {fail_prob_of(l), flip_prob}, rng);
        *dst_weights[l].value = std::move(decoded);
        bit_cursor += q.words.size() * 16ull;
    }
    return flipped;
}

/**
 * The group staging walk: dst := src, then each weight layer is
 * quantized and staged as 64-bit groups of four int16 words (the tail
 * group zero-padded like a real padded row). read_back(word) returns
 * what the memory hands back for one group, which is unpacked and
 * dequantized into dst. Templated, not std::function: serving stages
 * every weight word through here.
 */
template <typename ReadBack>
void
stageGroups(dnn::Network &dst, dnn::Network &src, const char *who,
            ReadBack &&read_back)
{
    dst.copyParamsFrom(src);
    auto src_weights = src.weightParams();
    auto dst_weights = dst.weightParams();
    if (src_weights.size() != dst_weights.size())
        fatal(who, ": network structure mismatch");

    for (std::size_t l = 0; l < src_weights.size(); ++l) {
        auto q = dnn::quantize(*src_weights[l].value);
        for (std::size_t g = 0; g < q.words.size(); g += 4) {
            std::uint64_t word = 0;
            for (std::size_t k = 0; k < 4 && g + k < q.words.size(); ++k)
                word |= static_cast<std::uint64_t>(
                            static_cast<std::uint16_t>(q.words[g + k]))
                        << (16 * k);
            const std::uint64_t out = read_back(word);
            for (std::size_t k = 0; k < 4 && g + k < q.words.size(); ++k)
                q.words[g + k] = static_cast<std::int16_t>(
                    static_cast<std::uint16_t>(out >> (16 * k)));
        }
        *dst_weights[l].value = dnn::dequantize(q);
    }
}

/** Group walk through `rmem`, optionally indexed. */
std::uint64_t
stageResilient(dnn::Network &dst, dnn::Network &src,
               resilience::ResilientMemory &rmem, Volt vdd,
               const sram::VulnerabilityMap &map,
               const sram::CleanWordIndex *index)
{
    const std::uint32_t capacity = rmem.memory().words();
    std::uint64_t residual = 0;
    std::uint64_t group_cursor = 0; // 64-bit words staged so far
    stageGroups(dst, src, "corruptNetworkResilient",
                [&](std::uint64_t word) {
                    const auto addr = static_cast<std::uint32_t>(
                        group_cursor % capacity);
                    ++group_cursor;
                    rmem.writeWord(addr, word, vdd);
                    const resilience::ReadOutcome out =
                        index ? rmem.readWord(addr, vdd, map, *index)
                              : rmem.readWord(addr, vdd, map);
                    residual += static_cast<std::uint64_t>(
                        std::popcount(word ^ out.data));
                    return out.data;
                });
    return residual;
}

} // namespace

std::uint64_t
corruptNetwork(dnn::Network &dst, dnn::Network &src,
               const sram::VulnerabilityMap &map, double fail_prob,
               const InjectionSpec &spec, const MemoryLayout &layout,
               Rng &rng)
{
    dst.copyParamsFrom(src);

    auto src_weights = src.weightParams();
    auto dst_weights = dst.weightParams();
    if (src_weights.size() != dst_weights.size())
        fatal("corruptNetwork: network structure mismatch");
    if (spec.onlyLayer >= static_cast<int>(src_weights.size()))
        fatal("corruptNetwork: layer index ", spec.onlyLayer,
              " out of range (", src_weights.size(), " weight layers)");

    if (!spec.injectWeights || fail_prob <= 0.0)
        return 0;

    // Every layer round-trips quantization (the accelerator computes
    // on int16 storage either way); only targeted layers get faults.
    return stageOpenLoop(
        src_weights, dst_weights, map,
        [&](std::size_t l) {
            const bool targeted = spec.onlyLayer < 0 ||
                                  spec.onlyLayer == static_cast<int>(l);
            return targeted ? fail_prob : 0.0;
        },
        spec.flipProb, layout, rng);
}

std::uint64_t
corruptNetworkPerLayer(dnn::Network &dst, dnn::Network &src,
                       const sram::VulnerabilityMap &map,
                       const std::vector<double> &fail_prob_by_layer,
                       double flip_prob, const MemoryLayout &layout,
                       Rng &rng)
{
    dst.copyParamsFrom(src);
    auto src_weights = src.weightParams();
    auto dst_weights = dst.weightParams();
    if (fail_prob_by_layer.size() != src_weights.size())
        fatal("corruptNetworkPerLayer: expected ", src_weights.size(),
              " per-layer probabilities, got ", fail_prob_by_layer.size());

    return stageOpenLoop(
        src_weights, dst_weights, map,
        [&](std::size_t l) { return fail_prob_by_layer[l]; }, flip_prob,
        layout, rng);
}

std::uint64_t
corruptNetworkEcc(dnn::Network &dst, dnn::Network &src,
                  const sram::VulnerabilityMap &map, double fail_prob,
                  double flip_prob, const MemoryLayout &layout, Rng &rng,
                  sram::EccStats *stats)
{
    const dnn::Backend &backend = dnn::activeBackend();
    std::uint64_t flipped = 0;
    std::uint64_t bit_cursor = 0;   // data-bit cursor (weight region)
    std::uint64_t check_cursor = 0; // check-bit cursor (parity region)
    stageGroups(dst, src, "corruptNetworkEcc", [&](std::uint64_t word) {
        // Corrupt the 64 data cells, then the 8 check cells (their own
        // region); RNG draws interleave per group, in cell order,
        // exactly as the backend contract specifies.
        std::uint64_t check = sram::SecdedCodec::encode(word);
        flipped += backend.applyFaultMapBits(
            word, 64, map, {0, layout.weightRegionBits, bit_cursor},
            {fail_prob, flip_prob}, rng);
        flipped += backend.applyFaultMapBits(
            check, 8, map,
            {layout.parityRegionBase(), layout.parityRegionBits(),
             check_cursor},
            {fail_prob, flip_prob}, rng);
        bit_cursor += 64;
        check_cursor += 8;

        const auto decoded = sram::SecdedCodec::decode(
            word, static_cast<std::uint8_t>(check));
        if (stats)
            stats->record(decoded.outcome);
        return decoded.data;
    });
    return flipped;
}

std::uint64_t
corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                        resilience::ResilientMemory &rmem, Volt vdd,
                        const sram::VulnerabilityMap &map)
{
    return stageResilient(dst, src, rmem, vdd, map, nullptr);
}

std::uint64_t
corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                        resilience::ResilientMemory &rmem, Volt vdd,
                        const sram::VulnerabilityMap &map,
                        const sram::CleanWordIndex &index)
{
    return stageResilient(dst, src, rmem, vdd, map, &index);
}

dnn::Tensor
corruptInputs(const dnn::Tensor &images, const sram::VulnerabilityMap &map,
              double fail_prob, double flip_prob,
              const MemoryLayout &layout, Rng &rng)
{
    auto q = dnn::quantize(images);
    if (fail_prob > 0.0) {
        // Each image is staged through the same physical input memory:
        // image i's bits start where a fresh staging would place them
        // (offset 0 of the region), so all images see the same cells.
        const dnn::Backend &backend = dnn::activeBackend();
        const int batch = images.dim(0);
        const std::size_t per_image = images.numel() /
                                      static_cast<std::size_t>(batch);
        for (int i = 0; i < batch; ++i) {
            backend.applyFaultMap(
                std::span<std::int16_t>(
                    q.words.data() +
                        per_image * static_cast<std::size_t>(i),
                    per_image),
                map,
                {layout.inputRegionBase(), layout.inputRegionBits, 0},
                {fail_prob, flip_prob}, rng);
        }
    }
    return dnn::dequantize(q);
}

} // namespace vboost::fi
