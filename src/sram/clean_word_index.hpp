/**
 * @file
 * Clean-word index (DESIGN.md §8): for every 72-cell codeword of a
 * banked memory — 64 data cells plus 8 check cells in a separate
 * region — the smallest cell hash of one vulnerability map. Maps are
 * inclusive (a cell is faulty iff its fixed hash falls below a
 * threshold that grows with F(v)), so "does this word hold a faulty
 * cell at F(v)?" is one compare of the stored minimum against the
 * threshold instead of 72 isFaulty() calls. Clustered maps keep one
 * minimum per stratum (cells inside and outside a defect cluster),
 * each compared against the map's own stratum threshold.
 *
 * Built once per (map, memory layout); immutable afterwards and safe
 * to share between threads.
 */

#ifndef VBOOST_SRAM_CLEAN_WORD_INDEX_HPP
#define VBOOST_SRAM_CLEAN_WORD_INDEX_HPP

#include <cstdint>
#include <vector>

#include "sram/banked_memory.hpp"
#include "sram/fault_map.hpp"

namespace vboost::sram {

/** Per-codeword minimum cell hash of one map over one memory. */
class CleanWordIndex
{
  public:
    /**
     * @param map vulnerability map the index answers for.
     * @param mem memory whose words are indexed; word w's data cells
     *        are mem.cellIndex(w) + [0, 64).
     * @param check_base first check cell; word w's check cells are
     *        check_base + 8w + [0, 8).
     */
    CleanWordIndex(const VulnerabilityMap &map, const BankedMemory &mem,
                   std::uint64_t check_base);

    /**
     * Does no data or check cell of `word` count as faulty under
     * isFaulty(cell, fail_prob)? Always false for fail_prob >= 1,
     * where callers keep the per-cell path.
     */
    bool clean(std::uint32_t word, double fail_prob) const;

    /** The thresholds clean() compares a word's minima against at
     *  fail_prob, to hoist out of a loop over words (fail_prob < 1). */
    StratumThresholds thresholds(double fail_prob) const
    {
        return map_.stratumThresholds(fail_prob);
    }

    /** clean() with hoisted thresholds(fail_prob), fail_prob < 1. */
    bool clean(std::uint32_t word, const StratumThresholds &thr) const
    {
        if (word >= words_)
            outOfRange(word);
        // isFaulty()'s thresholds: one stratum under Iid, so thr.lo
        // alone.
        if (!clustered_)
            return minHash_[word] >= thr.lo;
        const std::uint64_t *mins =
            &minHash_[2 * static_cast<std::size_t>(word)];
        return mins[0] >= thr.hi && mins[1] >= thr.lo;
    }

    /** Fatals unless this index was built for `map` over `mem` with
     *  the same check-cell base. */
    void requireMatch(const VulnerabilityMap &map, const BankedMemory &mem,
                      std::uint64_t check_base) const;

  private:
    [[noreturn]] void outOfRange(std::uint32_t word) const;

    /** The indexed map: its identity and stratum thresholds. */
    VulnerabilityMap map_;
    bool clustered_;
    std::uint64_t cellBase_;
    std::uint64_t checkBase_;
    std::uint32_t words_;
    /** Iid: one minimum per word. Clustered: two per word, the
     *  defect-cluster stratum first, then the background. */
    std::vector<std::uint64_t> minHash_;
};

} // namespace vboost::sram

#endif // VBOOST_SRAM_CLEAN_WORD_INDEX_HPP
