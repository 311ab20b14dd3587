#include "sram/clean_word_index.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::sram {

using detail::cellHash;
using detail::probThreshold;

CleanWordIndex::CleanWordIndex(const VulnerabilityMap &map,
                               const BankedMemory &mem,
                               std::uint64_t check_base)
    : map_(map), cellBase_(mem.cellBase()), checkBase_(check_base),
      words_(mem.words())
{
    const bool clustered = map.model() == MapModel::Clustered;
    const std::size_t per_word = clustered ? 2 : 1;
    minHash_.assign(words_ * per_word, ~0ull);
    const std::uint64_t key = map.streamKey();
    for (std::uint32_t w = 0; w < words_; ++w) {
        std::uint64_t *mins = &minHash_[w * per_word];
        auto visit = [&](std::uint64_t cell) {
            const std::uint64_t h = cellHash(key, cell);
            std::uint64_t &m =
                clustered && !map.inDefectCluster(cell) ? mins[1] : mins[0];
            m = std::min(m, h);
        };
        const std::uint64_t data = mem.cellIndex(w);
        for (std::uint64_t b = 0; b < 64; ++b)
            visit(data + b);
        const std::uint64_t check = check_base + 8ull * w;
        for (std::uint64_t b = 0; b < 8; ++b)
            visit(check + b);
    }
}

bool
CleanWordIndex::clean(std::uint32_t word, double fail_prob) const
{
    if (word >= words_)
        fatal("CleanWordIndex: word ", word, " out of range [0,", words_,
              ")");
    if (fail_prob >= 1.0)
        return false;
    if (map_.model() != MapModel::Clustered)
        return minHash_[word] >= probThreshold(fail_prob);
    // isFaulty() uses the raw fail_prob (threshold 0) at or below 0
    // and the stratum probabilities strictly between 0 and 1.
    if (fail_prob <= 0.0)
        return true;
    double hi = 0.0;
    double lo = 0.0;
    map_.stratumProbs(fail_prob, hi, lo);
    const std::uint64_t *mins = &minHash_[2 * static_cast<std::size_t>(word)];
    return mins[0] >= probThreshold(hi) && mins[1] >= probThreshold(lo);
}

void
CleanWordIndex::requireMatch(const VulnerabilityMap &map,
                             const BankedMemory &mem,
                             std::uint64_t check_base) const
{
    if (map.streamKey() != map_.streamKey() || map.model() != map_.model() ||
        (map.model() == MapModel::Clustered &&
         map.cluster() != map_.cluster())) {
        fatal("CleanWordIndex: built for a different vulnerability map");
    }
    if (mem.cellBase() != cellBase_ || mem.words() != words_ ||
        check_base != checkBase_) {
        fatal("CleanWordIndex: built for a different memory layout (",
              "cell base ", cellBase_, ", ", words_, " words) than ",
              mem.name(), " (cell base ", mem.cellBase(), ", ",
              mem.words(), " words)");
    }
}

} // namespace vboost::sram
