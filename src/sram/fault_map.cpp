#include "sram/fault_map.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::sram {

using detail::cellHash;
using detail::mix64;
using detail::probThreshold;

void
ClusterParams::validate() const
{
    if (rowCells == 0)
        fatal("ClusterParams: rowCells must be positive");
    // DefectCursor keeps a rowCells-bit column bitmap; no SRAM row
    // comes near this many cells.
    if (rowCells > kMaxRowCells)
        fatal("ClusterParams: rowCells must be at most ", kMaxRowCells,
              ", got ", rowCells);
    if (rowDefectProb < 0.0 || rowDefectProb > 1.0 ||
        colDefectProb < 0.0 || colDefectProb > 1.0) {
        fatal("ClusterParams: defect probabilities must be in [0,1]");
    }
    if (rowDefectProb + colDefectProb <= 0.0)
        fatal("ClusterParams: clustered model needs a nonzero defect "
              "process (row or column)");
    if (coverage() >= 1.0)
        fatal("ClusterParams: defect coverage must be below 1");
    if (defectBoost < 1.0)
        fatal("ClusterParams: defectBoost must be >= 1, got ", defectBoost);
}

VulnerabilityMap::VulnerabilityMap(std::uint64_t seed,
                                   std::uint64_t map_index)
    : seed_(seed), mapIndex_(map_index)
{
    streamKey_ = mix64(seed ^ mix64(map_index + 0x5851f42d4c957f2dull));
}

VulnerabilityMap::VulnerabilityMap(std::uint64_t seed,
                                   std::uint64_t map_index, MapModel model,
                                   const ClusterParams &cluster)
    : VulnerabilityMap(seed, map_index)
{
    model_ = model;
    if (model_ == MapModel::Clustered) {
        cluster.validate();
        cluster_ = cluster;
        // Independent defect streams so the row/column processes do
        // not alias the per-cell draws (which use streamKey_ itself).
        rowKey_ = mix64(streamKey_ ^ 0x60bee2bee120fc15ull);
        colKey_ = mix64(streamKey_ ^ 0xa3aac0aac0330ca3ull);
        rowThr_ = probThreshold(cluster_.rowDefectProb);
        colThr_ = probThreshold(cluster_.colDefectProb);
    }
}

double
VulnerabilityMap::cellUniform(std::uint64_t cell) const
{
    return (cellHash(streamKey_, cell) >> 11) * 0x1.0p-53;
}

bool
VulnerabilityMap::rowDefective(std::uint64_t row) const
{
    // rowThr_ is 0 under Iid, so no row is defective there.
    return cellHash(rowKey_, row) < rowThr_;
}

bool
VulnerabilityMap::colDefective(std::uint64_t col) const
{
    return cellHash(colKey_, col) < colThr_;
}

bool
VulnerabilityMap::inDefectCluster(std::uint64_t cell) const
{
    if (model_ != MapModel::Clustered)
        return false;
    return rowDefective(cell / cluster_.rowCells) ||
           colDefective(cell % cluster_.rowCells);
}

void
VulnerabilityMap::stratumProbs(double fail_prob, double &hi,
                               double &lo) const
{
    // Calibration: cov*hi + (1-cov)*lo == fail_prob exactly, with hi
    // boosted as far as defectBoost allows. Both hi(F) and lo(F) are
    // continuous and nondecreasing in F, so inclusivity (a fixed cell
    // draw against a moving threshold) carries over to the clustered
    // model unchanged.
    const double cov = cluster_.coverage();
    hi = std::min(1.0, cluster_.defectBoost * fail_prob);
    if (cov * hi > fail_prob) {
        hi = fail_prob / cov;
        lo = 0.0;
    } else {
        lo = (fail_prob - cov * hi) / (1.0 - cov);
    }
}

StratumThresholds
VulnerabilityMap::stratumThresholds(double fail_prob) const
{
    if (model_ != MapModel::Clustered || fail_prob <= 0.0 ||
        fail_prob >= 1.0) {
        const std::uint64_t thr = probThreshold(fail_prob);
        return {thr, thr};
    }
    double hi = 0.0;
    double lo = 0.0;
    stratumProbs(fail_prob, hi, lo);
    return {probThreshold(hi), probThreshold(lo)};
}

double
VulnerabilityMap::effectiveFailProb(std::uint64_t cell,
                                    double fail_prob) const
{
    if (model_ != MapModel::Clustered || fail_prob <= 0.0 ||
        fail_prob >= 1.0) {
        return fail_prob;
    }
    double hi = 0.0;
    double lo = 0.0;
    stratumProbs(fail_prob, hi, lo);
    return inDefectCluster(cell) ? hi : lo;
}

bool
VulnerabilityMap::isFaulty(std::uint64_t cell, double fail_prob) const
{
    if (model_ == MapModel::Clustered) {
        const StratumThresholds thr = stratumThresholds(fail_prob);
        return cellHash(streamKey_, cell) <
               (thr.hi != thr.lo && inDefectCluster(cell) ? thr.hi
                                                          : thr.lo);
    }
    return cellHash(streamKey_, cell) < probThreshold(fail_prob);
}

double
VulnerabilityMap::vulnerability(std::uint64_t cell) const
{
    // Cell is faulty iff u < F(v) iff Phi^-1(1-u) >= Phi^-1(1-F(v)),
    // so x = Phi^-1(1-u) is the N(0,1) vulnerability of the paper's
    // model. Clamp u away from the endpoints for a finite quantile.
    double u = cellUniform(cell);
    u = std::min(std::max(u, 1e-15), 1.0 - 1e-15);
    return inverseNormalCdf(1.0 - u);
}

std::vector<std::uint64_t>
VulnerabilityMap::faultyCells(std::uint64_t num_cells,
                              double fail_prob) const
{
    std::vector<std::uint64_t> out;
    if (model_ == MapModel::Clustered) {
        for (std::uint64_t c = 0; c < num_cells; ++c) {
            if (isFaulty(c, fail_prob))
                out.push_back(c);
        }
        return out;
    }
    const std::uint64_t thr = probThreshold(fail_prob);
    for (std::uint64_t c = 0; c < num_cells; ++c) {
        if (cellHash(streamKey_, c) < thr)
            out.push_back(c);
    }
    return out;
}

std::uint64_t
VulnerabilityMap::countFaulty(std::uint64_t num_cells,
                              double fail_prob) const
{
    std::uint64_t n = 0;
    if (model_ == MapModel::Clustered) {
        for (std::uint64_t c = 0; c < num_cells; ++c)
            n += isFaulty(c, fail_prob);
        return n;
    }
    const std::uint64_t thr = probThreshold(fail_prob);
    for (std::uint64_t c = 0; c < num_cells; ++c)
        n += cellHash(streamKey_, c) < thr;
    return n;
}

double
VulnerabilityMap::minUniform(std::uint64_t num_cells) const
{
    if (num_cells == 0)
        fatal("VulnerabilityMap::minUniform: empty cell range");
    if (model_ != MapModel::Iid) {
        fatal("VulnerabilityMap::minUniform: defined for i.i.d. maps "
              "only (clustered cells face per-stratum thresholds)");
    }
    std::uint64_t min_hash = ~0ull;
    for (std::uint64_t c = 0; c < num_cells; ++c)
        min_hash = std::min(min_hash, cellHash(streamKey_, c));
    return (min_hash >> 11) * 0x1.0p-53;
}

DefectCursor::DefectCursor(const VulnerabilityMap &map,
                           std::uint64_t first_cell,
                           std::uint64_t num_cells)
    : map_(&map)
{
    if (map.model() != MapModel::Clustered)
        return;
    rowCells_ = map.cluster().rowCells;
    colBits_.assign(rowCells_ / 64 + 2, 0);
    const std::uint64_t cols = std::min(num_cells, rowCells_);
    std::uint64_t col = first_cell % rowCells_;
    for (std::uint64_t i = 0; i < cols; ++i) {
        if (map.colDefective(col))
            colBits_[col >> 6] |= 1ull << (col & 63);
        if (++col == rowCells_)
            col = 0;
    }
    seek(first_cell);
}

void
DefectCursor::seek(std::uint64_t cell)
{
    if (rowCells_ == 0)
        return;
    row_ = cell / rowCells_;
    col_ = cell % rowCells_;
    rowDefect_ = map_->rowDefective(row_);
}

std::uint64_t
DefectCursor::next(unsigned n)
{
    if (rowCells_ == 0)
        return 0;
    std::uint64_t defect = 0;
    unsigned done = 0;
    while (done < n) {
        // One segment per row the n cells touch: the whole segment
        // when the row is defective, else its column bits.
        const unsigned seg = static_cast<unsigned>(
            std::min<std::uint64_t>(n - done, rowCells_ - col_));
        const std::uint64_t low =
            seg == 64 ? ~0ull : (1ull << seg) - 1;
        std::uint64_t bits = low;
        if (!rowDefect_) {
            const std::uint64_t w = col_ >> 6;
            const unsigned shift = static_cast<unsigned>(col_ & 63);
            bits = colBits_[w] >> shift;
            if (shift != 0)
                bits |= colBits_[w + 1] << (64 - shift);
            bits &= low;
        }
        defect |= bits << done;
        done += seg;
        col_ += seg;
        if (col_ == rowCells_) {
            col_ = 0;
            rowDefect_ = map_->rowDefective(++row_);
        }
    }
    return defect;
}

std::uint64_t
corruptWords(std::span<std::int16_t> words, const VulnerabilityMap &map,
             std::uint64_t base_cell, FaultParams params, Rng &rng)
{
    if (params.failProb < 0.0 || params.failProb > 1.0 ||
        params.flipProb < 0.0 || params.flipProb > 1.0) {
        fatal("corruptWords: probabilities must be in [0,1]");
    }
    if (params.failProb == 0.0 || params.flipProb == 0.0)
        return 0;

    std::uint64_t flipped = 0;
    std::uint64_t cell = base_cell;
    for (auto &word : words) {
        auto bits = static_cast<std::uint16_t>(word);
        for (int b = 0; b < 16; ++b, ++cell) {
            if (map.isFaulty(cell, params.failProb) &&
                rng.bernoulli(params.flipProb)) {
                bits ^= static_cast<std::uint16_t>(1u << b);
                ++flipped;
            }
        }
        word = static_cast<std::int16_t>(bits);
    }
    return flipped;
}

std::uint64_t
corruptWords64(std::span<std::uint64_t> words, const VulnerabilityMap &map,
               std::uint64_t base_cell, FaultParams params, Rng &rng)
{
    if (params.failProb < 0.0 || params.failProb > 1.0 ||
        params.flipProb < 0.0 || params.flipProb > 1.0) {
        fatal("corruptWords64: probabilities must be in [0,1]");
    }
    if (params.failProb == 0.0 || params.flipProb == 0.0)
        return 0;

    std::uint64_t flipped = 0;
    std::uint64_t cell = base_cell;
    for (auto &word : words) {
        for (int b = 0; b < 64; ++b, ++cell) {
            if (map.isFaulty(cell, params.failProb) &&
                rng.bernoulli(params.flipProb)) {
                word ^= 1ull << b;
                ++flipped;
            }
        }
    }
    return flipped;
}

} // namespace vboost::sram
