#include "sram/clean_word_index.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::sram {

using detail::cellHash;

CleanWordIndex::CleanWordIndex(const VulnerabilityMap &map,
                               const BankedMemory &mem,
                               std::uint64_t check_base)
    : map_(map), clustered_(map.model() == MapModel::Clustered),
      cellBase_(mem.cellBase()), checkBase_(check_base),
      words_(mem.words())
{
    const std::size_t per_word = clustered_ ? 2 : 1;
    minHash_.assign(words_ * per_word, ~0ull);
    const std::uint64_t key = map.streamKey();
    // Every column's defect bit, hashed once; the cursor hashes each
    // row once per seek. Iid maps get all-zero masks: one stratum.
    DefectCursor defects(map);
    for (std::uint32_t w = 0; w < words_; ++w) {
        std::uint64_t *mins = &minHash_[w * per_word];
        auto visit = [&](std::uint64_t first, unsigned n) {
            defects.seek(first);
            const std::uint64_t defect = defects.next(n);
            for (unsigned b = 0; b < n; ++b) {
                const std::uint64_t h = cellHash(key, first + b);
                std::uint64_t &m =
                    clustered_ && !((defect >> b) & 1u) ? mins[1] : mins[0];
                m = std::min(m, h);
            }
        };
        visit(mem.cellIndex(w), 64);
        visit(check_base + 8ull * w, 8);
    }
}

bool
CleanWordIndex::clean(std::uint32_t word, double fail_prob) const
{
    if (word >= words_)
        outOfRange(word);
    if (fail_prob >= 1.0)
        return false;
    return clean(word, thresholds(fail_prob));
}

void
CleanWordIndex::outOfRange(std::uint32_t word) const
{
    fatal("CleanWordIndex: word ", word, " out of range [0,", words_, ")");
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
