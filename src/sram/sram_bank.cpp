#include "sram/sram_bank.hpp"

#include "common/logging.hpp"

namespace vboost::sram {

namespace {

/** Memory-side load the booster drives: two macro arrays + parasitics. */
Farad
bankLoadCap(const circuit::TechnologyParams &tech)
{
    return tech.macroArrayCap * SramBank::kMacros + tech.fixedParasiticCap;
}

} // namespace

SramBank::SramBank(int bank_id, const circuit::BoosterDesign &design,
                   const circuit::TechnologyParams &tech,
                   const FailureRateModel &failure, int num_banks_in_memory)
    : bankId_(bank_id),
      // One booster column per macro, ganged per bank under one BIC.
      booster_(design.scaled(kMacros), bankLoadCap(tech), tech),
      bic_(design.levels()),
      energy_(tech),
      failure_(failure),
      numBanksInMemory_(num_banks_in_memory),
      macros_{SramMacro(static_cast<std::uint64_t>(bank_id) * kBits),
              SramMacro(static_cast<std::uint64_t>(bank_id) * kBits +
                        SramMacro::kBits)}
{
    if (bank_id < 0)
        fatal("SramBank: negative bank id");
    if (num_banks_in_memory < 1)
        fatal("SramBank: memory must contain at least one bank");
}

void
SramBank::setBoostConfig(std::uint32_t bits)
{
    bic_.setConfig(bits);
}

void
SramBank::setBoostLevel(int level)
{
    bic_.setLevel(level);
}

Volt
SramBank::effectiveVoltage(Volt vdd) const
{
    return booster_.boostedVoltage(vdd, bic_.enabledLevel());
}

double
SramBank::failProbAt(Volt vdd) const
{
    const auto level = static_cast<std::size_t>(bic_.enabledLevel());
    if (vdd == costsVdd_ && costs_[level].valid)
        return costs_[level].failProb;
    return failure_.rate(effectiveVoltage(vdd));
}

const SramBank::AccessCosts &
SramBank::costsAt(Volt vdd)
{
    if (vdd != costsVdd_) {
        costsVdd_ = vdd;
        costs_.assign(static_cast<std::size_t>(levels()) + 1,
                      AccessCosts{});
    }
    const int level = bic_.enabledLevel();
    AccessCosts &c = costs_[static_cast<std::size_t>(level)];
    if (!c.valid) {
        const Volt vddv = booster_.boostedVoltage(vdd, level);
        c.access = energy_.sramAccessEnergy(vddv, numBanksInMemory_);
        if (level > 0)
            c.boost = booster_.boostEventEnergy(vdd, level);
        c.failProb = failure_.rate(vddv);
        c.valid = true;
    }
    return c;
}

const SramMacro &
SramBank::macroFor(std::uint32_t addr, std::uint32_t &macro_addr) const
{
    if (addr >= kWords)
        fatal("SramBank: address ", addr, " out of range [0,", kWords, ")");
    macro_addr = addr % SramMacro::kWords;
    return macros_[addr / SramMacro::kWords];
}

void
SramBank::chargeAccess(Volt vdd)
{
    const AccessCosts &c = costsAt(vdd);
    counters_.accessEnergy += c.access;
    if (bic_.enabledLevel() > 0) {
        counters_.boostEnergy += c.boost;
        ++counters_.boostEvents;
    }
}

void
SramBank::write(std::uint32_t addr, std::uint64_t data, Volt vdd)
{
    std::uint32_t macro_addr;
    macroFor(addr, macro_addr); // bounds check
    macros_[addr / SramMacro::kWords].write(macro_addr, data);
    chargeAccess(vdd);
    ++counters_.writes;
}

std::uint64_t
SramBank::read(std::uint32_t addr, Volt vdd, const VulnerabilityMap &map,
               Rng &rng)
{
    std::uint32_t macro_addr;
    const auto &macro = macroFor(addr, macro_addr);
    chargeAccess(vdd);
    ++counters_.reads;
    return macro.read(macro_addr, map,
                      FaultParams{costsAt(vdd).failProb, flipProb_}, rng);
}

std::uint64_t
SramBank::readClean(std::uint32_t addr, Volt vdd)
{
    std::uint32_t macro_addr;
    const auto &macro = macroFor(addr, macro_addr);
    chargeAccess(vdd);
    ++counters_.reads;
    return macro.peek(macro_addr);
}

std::uint64_t
SramBank::peek(std::uint32_t addr) const
{
    std::uint32_t macro_addr;
    const auto &macro = macroFor(addr, macro_addr);
    return macro.peek(macro_addr);
}

Watt
SramBank::leakagePower(Volt vdd) const
{
    // SRAMs idle at the unboosted supply: boosting happens only inside
    // access cycles, so leakage is evaluated at Vdd (the key leakage
    // advantage over a dual-rail design holding the SRAM at Vddv).
    return energy_.sramLeakage(vdd, kMacros) + booster_.leakagePower(vdd);
}

std::uint64_t
SramBank::cellIndex(std::uint32_t addr) const
{
    std::uint32_t macro_addr;
    const auto &macro = macroFor(addr, macro_addr);
    return macro.cellIndex(macro_addr, 0);
}

void
SramBank::setFlipProb(double p)
{
    if (p < 0.0 || p > 1.0)
        fatal("SramBank::setFlipProb: p must be in [0,1], got ", p);
    flipProb_ = p;
}

} // namespace vboost::sram
