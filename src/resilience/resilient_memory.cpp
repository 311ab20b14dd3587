#include "resilience/resilient_memory.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace vboost::resilience {

namespace {

/**
 * Cell-space layout: data cells occupy each memory's own region
 * starting at its cellBase(); the regions below are disjoint from all
 * data regions (which end far below 2^38) and from the canary region
 * at 2^40 (core/canary.cpp). Offsetting by cellBase() keeps multiple
 * wrapped memories disjoint from each other too.
 */
constexpr std::uint64_t kParityRegionBase = 1ull << 38;
constexpr std::uint64_t kSpareRegionBase = 1ull << 39;

/** Codeword bits one spare row occupies (64 data + 8 check). */
constexpr std::uint64_t kSpareRowBits = 72;

} // namespace

void
ResilienceStats::merge(const ResilienceStats &other)
{
    reads += other.reads;
    cleanReads += other.cleanReads;
    correctedReads += other.correctedReads;
    retriedReads += other.retriedReads;
    retries += other.retries;
    escalations += other.escalations;
    standingRaises += other.standingRaises;
    quarantines += other.quarantines;
    spareReads += other.spareReads;
    spareExhausted += other.spareExhausted;
    uncorrected += other.uncorrected;
    retryEnergy += other.retryEnergy;
    spareEnergy += other.spareEnergy;
    retryLatency += other.retryLatency;
    // Order-sensitive chain: merging in map order yields a digest that
    // is a pure function of the per-map tables.
    spareTableDigest =
        (spareTableDigest * 0x100000001b3ull) ^ other.spareTableDigest;
}

ResilientMemory::ResilientMemory(sram::BankedMemory &mem,
                                 const core::SimContext &ctx,
                                 ResiliencePolicy policy)
    : mem_(mem), policy_(policy),
      supply_(ctx.tech, ctx.design, mem.banks()), failure_(ctx.failure),
      latency_(ctx.tech), canary_(ctx, mem.banks()),
      maxLevel_(mem.bank(0).levels()), check_(mem.words(), 0),
      standing_(static_cast<std::size_t>(mem.banks()), policy.startLevel),
      parityBase_(kParityRegionBase + mem.cellBase()),
      spareBase_(kSpareRegionBase + mem.cellBase()),
      monitor_(mem.banks(), policy.ewmaAlpha, policy.raiseThreshold),
      spares_(policy.spareRows), base_(0)
{
    policy_.validate(maxLevel_);
    mem_.setAllBoostLevels(policy_.startLevel);
}

void
ResilientMemory::reseed(const Rng &base)
{
    base_ = base;
    accessCounter_ = 0;
}

void
ResilientMemory::writeWord(std::uint32_t addr, std::uint64_t data,
                           Volt vdd)
{
    mem_.write(addr, data, vdd);
    check_[addr] = sram::SecdedCodec::encode(data);
    // A quarantined row's spare image shadows the primary row; keep it
    // coherent (hardware rewrites both on a store to a spared address).
    const int slot = spares_.find(addr);
    if (slot >= 0) {
        spares_.row(slot).data = data;
        spares_.row(slot).check = check_[addr];
    }
}

sram::CleanWordIndex
ResilientMemory::cleanWordIndex(const sram::VulnerabilityMap &map,
                                const sram::BankedMemory &mem)
{
    return sram::CleanWordIndex(map, mem,
                                kParityRegionBase + mem.cellBase());
}

std::uint8_t
ResilientMemory::corruptCheck(std::uint8_t check, std::uint64_t base_cell,
                              double fail_prob, double flip_prob,
                              const sram::VulnerabilityMap &map, Rng &rng)
{
    if (fail_prob <= 0.0)
        return check;
    for (int b = 0; b < sram::SecdedCodec::kCheckBits; ++b) {
        if (map.isFaulty(base_cell + static_cast<std::uint64_t>(b),
                         fail_prob) &&
            rng.bernoulli(flip_prob)) {
            check = static_cast<std::uint8_t>(check ^ (1u << b));
        }
    }
    return check;
}

sram::EccDecodeResult
ResilientMemory::attemptRead(std::uint32_t addr, int spare_slot, int level,
                             Volt vdd, const sram::VulnerabilityMap &map,
                             std::uint64_t stream,
                             const sram::CleanWordIndex *index)
{
    const int bank = mem_.bankOf(addr);
    const double flip = mem_.bank(bank).flipProb();
    if (spare_slot < 0) {
        // Primary row: a real bank access (charges access + boost
        // energy in the bank counters at the attempt's level).
        if (mem_.boostLevel(bank) != level)
            mem_.setBoostLevel(bank, level);
        const double fail = mem_.bank(bank).failProbAt(vdd);
        // No faulty cell among the word's 72: the fault draws below
        // would consume nothing and flip nothing (§8).
        if (index && index->clean(addr, fail))
            return sram::SecdedCodec::decode(mem_.readClean(addr, vdd),
                                             check_[addr]);
        Rng rng = base_.split(stream);
        const std::uint64_t data = mem_.read(addr, vdd, map, rng);
        const std::uint8_t check = corruptCheck(
            check_[addr], parityBase_ + static_cast<std::uint64_t>(addr) * 8,
            fail, flip, map, rng);
        return sram::SecdedCodec::decode(data, check);
    }

    // Spare row: same bank conditions, fresh cells in the spare region.
    Rng rng = base_.split(stream);
    const Volt vddv = supply_.boostedVoltage(vdd, level);
    const double fail = failure_.rate(vddv);
    const SpareRow &row =
        spares_.row(spare_slot); // image is golden; faults manifest here
    std::uint64_t data = row.data;
    const std::uint64_t base =
        spareBase_ + static_cast<std::uint64_t>(spare_slot) * kSpareRowBits;
    if (fail > 0.0) {
        for (int b = 0; b < 64; ++b) {
            if (map.isFaulty(base + static_cast<std::uint64_t>(b), fail) &&
                rng.bernoulli(flip))
                data ^= 1ull << b;
        }
    }
    const std::uint8_t check = corruptCheck(row.check, base + 64, fail,
                                            flip, map, rng);
    stats_.spareEnergy +=
        supply_.energyModel().sramAccessEnergy(vddv, mem_.banks());
    if (level > 0)
        stats_.spareEnergy += supply_.booster().boostEventEnergy(vdd, level);
    return sram::SecdedCodec::decode(data, check);
}

ReadOutcome
ResilientMemory::readWord(std::uint32_t addr, Volt vdd,
                          const sram::VulnerabilityMap &map)
{
    return read(addr, vdd, map, nullptr);
}

ReadOutcome
ResilientMemory::readWord(std::uint32_t addr, Volt vdd,
                          const sram::VulnerabilityMap &map,
                          const sram::CleanWordIndex &index)
{
    index.requireMatch(map, mem_, parityBase_);
    return read(addr, vdd, map, &index);
}

std::uint64_t
ResilientMemory::stageSpan(std::uint32_t first,
                           std::span<std::uint64_t> words, Volt vdd,
                           const sram::VulnerabilityMap &map,
                           const sram::CleanWordIndex &index)
{
    index.requireMatch(map, mem_, parityBase_);
    const std::uint32_t capacity = mem_.words();
    if (first >= capacity)
        fatal("ResilientMemory::stageSpan: first address ", first,
              " out of range [0,", capacity, ")");
    const bool closed = policy_.mode == AccessPolicyMode::ClosedLoop;

    // Whether a bank's clean primary-row words may take the bulk path,
    // and the index thresholds at its F: looked up on the bank's first
    // word, and again after any word that may have raised its level
    // (§8). Thresholds left stale by a raise would only be too strict,
    // as a raise lowers F; the refresh keeps later words on the bulk
    // path.
    struct BankState
    {
        bool known = false;
        /** The BIC sits at the standing level and F < 1. */
        bool bulk = false;
        sram::SramBank *bank = nullptr;
        sram::StratumThresholds thr;
    };
    std::vector<BankState> banks(static_cast<std::size_t>(mem_.banks()));

    std::uint64_t residual = 0;
    std::uint32_t addr = first;
    for (std::uint64_t &word : words) {
        const int b = static_cast<int>(addr / sram::SramBank::kWords);
        BankState &st = banks[static_cast<std::size_t>(b)];
        if (!st.known) {
            st.known = true;
            st.bank = &mem_.bank(b);
            st.bulk = st.bank->boostLevel() ==
                      standing_[static_cast<std::size_t>(b)];
            if (st.bulk) {
                const double fail = st.bank->failProbAt(vdd);
                st.bulk = fail < 1.0;
                if (st.bulk)
                    st.thr = index.thresholds(fail);
            }
        }
        if (st.bulk && index.clean(addr, st.thr) &&
            (spares_.used() == 0 || spares_.find(addr) < 0)) {
            // The word holds no faulty cell and the span wrote it
            // itself, so the read returns it as written and decoding
            // it against its fresh check byte would find it clean.
            const std::uint32_t bank_addr = addr % sram::SramBank::kWords;
            st.bank->write(bank_addr, word, vdd);
            st.bank->readClean(bank_addr, vdd);
            check_[addr] = sram::SecdedCodec::encode(word);
            ++accessCounter_;
            ++stats_.reads;
            ++stats_.cleanReads;
            if (closed && monitor_.recordAccess(b, false)) {
                raiseStandingLevel(b, vdd, map);
                st.known = false;
            }
        } else {
            const std::uint64_t written = word;
            writeWord(addr, written, vdd);
            word = read(addr, vdd, map, &index).data;
            residual += static_cast<std::uint64_t>(
                std::popcount(written ^ word));
            // The monitor may have raised the standing level; read()
            // left the BIC there.
            st.known = false;
        }
        if (++addr == capacity)
            addr = 0;
    }
    return residual;
}

ReadOutcome
ResilientMemory::read(std::uint32_t addr, Volt vdd,
                      const sram::VulnerabilityMap &map,
                      const sram::CleanWordIndex *index)
{
    const int bank = mem_.bankOf(addr);
    const int slot = spares_.find(addr);
    const std::uint64_t access = accessCounter_++;
    ++stats_.reads;
    if (slot >= 0)
        ++stats_.spareReads;

    const int budget =
        policy_.mode == AccessPolicyMode::ClosedLoop ? policy_.retryBudget
                                                     : 0;
    sram::EccDecodeResult dec;
    ReadOutcome out;
    bool first_error = false;
    int attempt = 0;
    for (;; ++attempt) {
        const int level =
            policy_.attemptLevel(standing_[static_cast<std::size_t>(bank)],
                                 attempt, maxLevel_);
        // Per-access counter-based stream: independent of thread
        // scheduling and of how much randomness other reads consumed.
        dec = attemptRead(addr, slot, level, vdd, map,
                          access * ResiliencePolicy::kMaxAttempts +
                              static_cast<std::uint64_t>(attempt),
                          index);
        out.level = level;
        if (attempt == 0) {
            first_error = dec.outcome != sram::EccOutcome::Clean;
        } else {
            ++stats_.retries;
            if (level > standing_[static_cast<std::size_t>(bank)])
                ++stats_.escalations;
            const Volt vddv = supply_.boostedVoltage(vdd, level);
            // Retry accounting accumulates in attempt order, which is
            // fixed per access by the counter-derived RNG streams (§7).
            // vblint: assoc-ok(attempt-order accumulation, fixed per access)
            stats_.retryEnergy +=
                supply_.energyModel().sramAccessEnergy(vddv, mem_.banks());
            if (level > 0)
                // vblint: assoc-ok(attempt-order accumulation, fixed per access)
                stats_.retryEnergy +=
                    supply_.booster().boostEventEnergy(vdd, level);
            // vblint: assoc-ok(attempt-order accumulation, fixed per access)
            stats_.retryLatency += latency_.accessTime(vddv, vdd);
        }
        if (dec.outcome != sram::EccOutcome::DetectedUncorrectable ||
            attempt >= budget)
            break;
    }
    // Escalated attempts may have overridden the BIC; restore.
    if (mem_.boostLevel(bank) != standing_[static_cast<std::size_t>(bank)])
        mem_.setBoostLevel(bank, standing_[static_cast<std::size_t>(bank)]);

    out.data = dec.data;
    out.outcome = dec.outcome;
    out.attempts = attempt + 1;
    out.fromSpare = slot >= 0;
    if (attempt > 0)
        ++stats_.retriedReads;
    switch (dec.outcome) {
      case sram::EccOutcome::Clean:
        ++stats_.cleanReads;
        break;
      case sram::EccOutcome::Corrected:
        ++stats_.correctedReads;
        break;
      case sram::EccOutcome::DetectedUncorrectable:
        out.gaveUp = true;
        ++stats_.uncorrected;
        break;
    }

    if (policy_.mode == AccessPolicyMode::ClosedLoop) {
        // The monitor sees raw first-attempt health: retry success must
        // not mask a degrading bank.
        if (monitor_.recordAccess(bank, first_error))
            raiseStandingLevel(bank, vdd, map);
        if (out.gaveUp)
            recordRowError(addr, slot);
    }
    return out;
}

void
ResilientMemory::raiseStandingLevel(int bank, Volt vdd,
                                    const sram::VulnerabilityMap &map)
{
    const int standing = standing_[static_cast<std::size_t>(bank)];
    if (standing >= maxLevel_)
        return; // already at the top: report-and-continue
    // Re-decide through the canary controller (the margin-calibrated
    // floor), but always move at least one level up.
    int target = standing + 1;
    if (const auto canary = canary_.chooseLevel(vdd, map))
        target = std::max(target, *canary);
    target = std::min(target, maxLevel_);
    standing_[static_cast<std::size_t>(bank)] = target;
    mem_.setBoostLevel(bank, target);
    ++stats_.standingRaises;
    warnRateLimited("resilience: ", mem_.name(), " bank ", bank,
                    " standing boost level ", standing, " -> ", target,
                    " (EWMA error rate over ", policy_.raiseThreshold, ")");
}

void
ResilientMemory::recordRowError(std::uint32_t addr, int spare_slot)
{
    if (spare_slot >= 0)
        return; // already on a spare; no spare-of-spare chaining
    if (policy_.spareRows == 0)
        return;
    int &n = rowErrors_[addr];
    if (++n < policy_.quarantineThreshold)
        return;
    if (spares_.full()) {
        ++stats_.spareExhausted;
        return;
    }
    // Writes are reliable in this model, so the stored image is golden;
    // hardware would restage the row from the ECC-scrubbed source.
    spares_.remap(addr, mem_.peek(addr), check_[addr]);
    rowErrors_.erase(addr);
    ++stats_.quarantines;
    warnRateLimited("resilience: ", mem_.name(), " quarantined row ", addr,
                    " into spare ", spares_.used() - 1, " (",
                    spares_.capacity() - spares_.used(),
                    " spares left)");
}

void
ResilientMemory::writeWords16(std::uint32_t elem16,
                              const std::vector<std::int16_t> &values,
                              Volt vdd)
{
    std::uint32_t i = 0;
    while (i < values.size()) {
        const std::uint32_t addr = (elem16 + i) / 4;
        std::uint64_t word = mem_.peek(addr);
        while (i < values.size() && (elem16 + i) / 4 == addr) {
            const std::uint32_t lane = (elem16 + i) % 4;
            const std::uint64_t mask = 0xffffull << (16 * lane);
            const auto v = static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(values[i]));
            word = (word & ~mask) | (v << (16 * lane));
            ++i;
        }
        writeWord(addr, word, vdd);
    }
}

std::vector<std::int16_t>
ResilientMemory::readWords16(std::uint32_t elem16, std::uint32_t count,
                             Volt vdd, const sram::VulnerabilityMap &map)
{
    std::vector<std::int16_t> out;
    out.reserve(count);
    std::uint32_t i = 0;
    while (i < count) {
        const std::uint32_t addr = (elem16 + i) / 4;
        const std::uint64_t word = readWord(addr, vdd, map).data;
        while (i < count && (elem16 + i) / 4 == addr) {
            const std::uint32_t lane = (elem16 + i) % 4;
            out.push_back(static_cast<std::int16_t>(
                static_cast<std::uint16_t>(word >> (16 * lane))));
            ++i;
        }
    }
    return out;
}

int
ResilientMemory::standingLevel(int bank) const
{
    if (bank < 0 || bank >= mem_.banks())
        fatal("ResilientMemory: bank ", bank, " out of range");
    return standing_[static_cast<std::size_t>(bank)];
}

ResilienceStats
ResilientMemory::snapshot() const
{
    ResilienceStats s = stats_;
    s.spareTableDigest = spares_.digest();
    return s;
}

void
ResilientMemory::resetRuntimeState()
{
    stats_ = ResilienceStats{};
    monitor_.reset();
    spares_ = SpareRowTable(policy_.spareRows);
    rowErrors_.clear();
    std::fill(standing_.begin(), standing_.end(), policy_.startLevel);
    mem_.setAllBoostLevels(policy_.startLevel);
    accessCounter_ = 0;
}

Joule
ResilientMemory::totalAccessEnergy() const
{
    const auto c = mem_.totalCounters();
    return c.accessEnergy + c.boostEnergy + stats_.spareEnergy;
}

void
ResilientMemory::exportMetrics(obs::MetricsRegistry &reg,
                               const obs::Labels &labels) const
{
    const ResilienceStats s = snapshot();
    reg.counter("resil.reads", labels).add(s.reads);
    reg.counter("resil.reads.clean", labels).add(s.cleanReads);
    reg.counter("resil.reads.corrected", labels).add(s.correctedReads);
    reg.counter("resil.reads.retried", labels).add(s.retriedReads);
    reg.counter("resil.retry.count", labels).add(s.retries);
    reg.counter("resil.escalation.count", labels).add(s.escalations);
    reg.counter("resil.standing_raise.count", labels).add(s.standingRaises);
    reg.counter("resil.quarantine.count", labels).add(s.quarantines);
    reg.counter("resil.spare.reads", labels).add(s.spareReads);
    reg.counter("resil.spare.exhausted", labels).add(s.spareExhausted);
    reg.counter("resil.uncorrected.count", labels).add(s.uncorrected);
    reg.sum("resil.retry.energy_j", labels).add(s.retryEnergy.value());
    reg.sum("resil.spare.energy_j", labels).add(s.spareEnergy.value());
    reg.sum("resil.retry.latency_s", labels).add(s.retryLatency.value());

    // Per-bank attribution: where the boost (and thus resilience)
    // energy actually went, plus the standing level each bank settled
    // at. Femtojoule floor to microjoule ceiling covers a single boost
    // event up to a heavily escalated bank.
    obs::Histogram boost_hist = reg.histogram(
        "resil.bank.boost_energy_j", obs::exponentialBounds(1e-15, 10.0, 10),
        labels);
    for (int b = 0; b < mem_.banks(); ++b) {
        const sram::BankCounters &c = mem_.bankCounters(b);
        boost_hist.observe(c.boostEnergy.value());
        obs::Labels bank_labels = labels;
        bank_labels["bank"] = std::to_string(b);
        reg.gauge("resil.bank.standing_level", bank_labels)
            .set(static_cast<double>(standingLevel(b)));
        reg.counter("resil.bank.boost_events", bank_labels)
            .add(c.boostEvents);
    }
}

} // namespace vboost::resilience
