#include "circuit/bic.hpp"

#include <bit>

#include "common/logging.hpp"

namespace vboost::circuit {

BoostInputControl::BoostInputControl(int num_cells) : numCells_(num_cells)
{
    if (num_cells < 1 || num_cells > 32)
        fatal("BoostInputControl: num_cells must be in [1,32], got ",
              num_cells);
    mask_ = num_cells == 32 ? ~0u : ((1u << num_cells) - 1u);
}

void
BoostInputControl::setConfig(std::uint32_t bits)
{
    config_ = bits & mask_;
    level_ = std::popcount(config_);
}

void
BoostInputControl::setLevel(int level)
{
    if (level < 0 || level > numCells_)
        fatal("BoostInputControl::setLevel: level ", level, " out of [0,",
              numCells_, "]");
    setConfig(level == 0 ? 0u : ((1u << level) - 1u));
}

std::vector<bool>
BoostInputControl::boostInputs(bool cen, bool boost_clk) const
{
    std::vector<bool> out(static_cast<std::size_t>(numCells_));
    for (int i = 0; i < numCells_; ++i) {
        const bool enabled = (config_ >> i) & 1u;
        if (!enabled) {
            // Disabled: Boost_in stays high, nFET holds output ~Vdd.
            out[static_cast<std::size_t>(i)] = true;
        } else {
            // Enabled: low at idle; swings high to boost when an access
            // (CEN low) coincides with the high phase of Boost_clk.
            out[static_cast<std::size_t>(i)] = !cen && boost_clk;
        }
    }
    return out;
}

bool
BoostInputControl::boostActive(bool cen, bool boost_clk) const
{
    return !cen && boost_clk && config_ != 0;
}

} // namespace vboost::circuit
