/**
 * @file
 * One boost-enabled SRAM bank: 64 Kbit (two 4 KB macros) with its own
 * booster-cell column, Boost Input Control block and configuration
 * register (paper Sec. 4: "The MIM capacitor-based programmable boost
 * circuit ... boosts each SRAM bank of size 64Kbit (2 macros) to a
 * different supply voltage using its corresponding configuration
 * bits"). Every read/write at chip supply Vdd is performed with the
 * array rail boosted to Vddv(level); the failure probability applied on
 * the read path is F(Vddv).
 */

#ifndef VBOOST_SRAM_SRAM_BANK_HPP
#define VBOOST_SRAM_SRAM_BANK_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/bic.hpp"
#include "circuit/booster.hpp"
#include "circuit/energy_model.hpp"
#include "sram/failure_model.hpp"
#include "sram/sram_macro.hpp"

namespace vboost::sram {

/** Access/energy/error accounting for one bank. */
struct BankCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t boostEvents = 0;
    Joule accessEnergy{0.0};
    Joule boostEnergy{0.0};

    void reset() { *this = BankCounters{}; }
};

/** A 64 Kbit boost-enabled SRAM bank. */
class SramBank
{
  public:
    /** Macros per bank. */
    static constexpr int kMacros = 2;
    /** 64-bit words per bank. */
    static constexpr std::uint32_t kWords = kMacros * SramMacro::kWords;
    /** Bitcells per bank. */
    static constexpr std::uint64_t kBits =
        static_cast<std::uint64_t>(kMacros) * SramMacro::kBits;

    /**
     * @param bank_id position of the bank in its memory (determines the
     *        global cell range of its macros).
     * @param design booster column design (one column per bank).
     * @param tech technology constants.
     * @param failure failure-rate calibration.
     * @param num_banks_in_memory total banks sharing the output mux
     *        (sets the per-access mux energy).
     */
    SramBank(int bank_id, const circuit::BoosterDesign &design,
             const circuit::TechnologyParams &tech,
             const FailureRateModel &failure, int num_banks_in_memory);

    /** Program the boost configuration bits (set_boost_config). */
    void setBoostConfig(std::uint32_t bits);

    /** Program a boost level directly (enable the first `level` cells). */
    void setBoostLevel(int level);

    /** Currently enabled boost level. */
    int boostLevel() const { return bic_.enabledLevel(); }

    /** Number of programmable boost levels. */
    int levels() const { return booster_.levels(); }

    /** Boosted array voltage for an access at chip supply vdd. */
    Volt effectiveVoltage(Volt vdd) const;

    /** Bit failure probability for an access at chip supply vdd. */
    double failProbAt(Volt vdd) const;

    /**
     * Write a 64-bit word. Consumes access energy at the boosted
     * voltage and a boost event if boosting is enabled.
     */
    void write(std::uint32_t addr, std::uint64_t data, Volt vdd);

    /** Read a word through the faulty read path at chip supply vdd. */
    std::uint64_t read(std::uint32_t addr, Volt vdd,
                       const VulnerabilityMap &map, Rng &rng);

    /**
     * Read a word none of whose cells is faulty at the current
     * operating point: charges the access exactly like read() and
     * returns the stored word without consulting the fault map (which
     * would draw nothing and flip nothing). The caller vouches for
     * the word, e.g. through a CleanWordIndex.
     */
    std::uint64_t readClean(std::uint32_t addr, Volt vdd);

    /** Fault-free debug read (no energy, no faults). */
    std::uint64_t peek(std::uint32_t addr) const;

    /** Leakage power of this bank (macros idle at vdd + booster). */
    Watt leakagePower(Volt vdd) const;

    /** Booster column + BIC silicon area for this bank. */
    Area boosterArea() const { return booster_.area(); }

    /** Access/energy counters. */
    const BankCounters &counters() const { return counters_; }

    /** Reset counters. */
    void resetCounters() { counters_.reset(); }

    /** Global cell index of bit 0 of word `addr`. */
    std::uint64_t cellIndex(std::uint32_t addr) const;

    /** Per-read flip probability used on faulty cells. */
    double flipProb() const { return flipProb_; }

    /** Override the faulty-cell read flip probability (default 0.5). */
    void setFlipProb(double p);

  private:
    /** What one access costs at a (vdd, enabled level) pair. */
    struct AccessCosts
    {
        bool valid = false;
        Joule access{0.0};
        Joule boost{0.0};
        double failProb = 0.0;
    };

    const SramMacro &macroFor(std::uint32_t addr,
                              std::uint32_t &macro_addr) const;
    void chargeAccess(Volt vdd);
    /** The access costs at vdd and the enabled level, computed once
     *  per (vdd, level) and memoized until vdd changes. */
    const AccessCosts &costsAt(Volt vdd);

    int bankId_;
    circuit::BoosterBank booster_;
    circuit::BoostInputControl bic_;
    circuit::EnergyModel energy_;
    FailureRateModel failure_;
    int numBanksInMemory_;
    double flipProb_ = 0.5;
    std::array<SramMacro, kMacros> macros_;
    BankCounters counters_;
    /** costsAt() memo: one entry per enabled level, all at costsVdd_
     *  (NaN until the first access, so it matches no supply). */
    Volt costsVdd_{std::numeric_limits<double>::quiet_NaN()};
    std::vector<AccessCosts> costs_;
};

} // namespace vboost::sram

#endif // VBOOST_SRAM_SRAM_BANK_HPP
