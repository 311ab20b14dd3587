/**
 * @file
 * Boost Input Control (BIC) block (paper Sec. 3.2.1). One BIC per SRAM
 * bank generates the per-booster-cell Boost_in signals from the
 * application-programmable configuration bits, the active-low bank
 * enable CEN, and the Boost_clk. A booster cell is enabled iff its
 * configuration bit is set; an enabled cell's Boost_in swings during a
 * read/write access (CEN low) in the high phase of Boost_clk, producing
 * the boost event. Disabled cells keep Boost_in high (nFET on, output
 * held near Vdd).
 */

#ifndef VBOOST_CIRCUIT_BIC_HPP
#define VBOOST_CIRCUIT_BIC_HPP

#include <cstdint>
#include <vector>

namespace vboost::circuit {

/** Combinational model of one bank's Boost Input Control block. */
class BoostInputControl
{
  public:
    /** @param num_cells number of booster cells P controlled (1..32). */
    explicit BoostInputControl(int num_cells);

    /**
     * Program the configuration register (the datapath of the
     * accelerator's set_boost_config instruction). Bits above P are
     * ignored. Bit i enables booster cell i.
     */
    void setConfig(std::uint32_t bits);

    /** Current configuration register value (masked to P bits). */
    std::uint32_t config() const { return config_; }

    /**
     * Convenience: program a *level* 0..P, i.e. enable the first
     * `level` cells ('1111' = level 4 in the paper's 4-cell example).
     */
    void setLevel(int level);

    /** Enabled cell count (popcount of the configuration register,
     *  kept by setConfig(): every SRAM access asks for it). */
    int enabledLevel() const { return level_; }

    /** Number of controlled booster cells P. */
    int numCells() const { return numCells_; }

    /**
     * Evaluate the Boost_in outputs.
     *
     * @param cen active-low chip/bank enable: false = access in flight.
     * @param boost_clk high phase of the boost clock.
     * @return per-cell Boost_in values; true = input high. An enabled
     *         cell's input is low when idle and swings high (boost!)
     *         during an access with boost_clk high; a disabled cell's
     *         input is always high.
     */
    std::vector<bool> boostInputs(bool cen, bool boost_clk) const;

    /** True iff any cell boosts for the given control inputs. */
    bool boostActive(bool cen, bool boost_clk) const;

  private:
    int numCells_;
    std::uint32_t mask_;
    std::uint32_t config_ = 0;
    int level_ = 0;
};

} // namespace vboost::circuit

#endif // VBOOST_CIRCUIT_BIC_HPP
