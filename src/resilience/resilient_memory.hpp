/**
 * @file
 * Closed-loop resilient SRAM access pipeline (DESIGN.md §8): a wrapper
 * that turns a boost-enabled BankedMemory into a self-protecting store.
 * Every 64-bit word is written with Hamming(72,64) SECDED check bits
 * (stored in their own, equally faulty, cell region); every read runs
 * through ECC decode and is classified clean / corrected /
 * detected-uncorrectable. Under the closed-loop policy a detection
 * triggers a bounded retry loop with per-attempt boost escalation —
 * each retry is a real bank access that pays access + boost energy and
 * an access-time latency penalty — while a per-bank EWMA error monitor
 * raises standing boost levels (re-deciding through the canary
 * controller) and persistent offender rows are quarantined into a
 * small spare-row remap table. When spares run out the pipeline
 * degrades gracefully to report-and-continue.
 *
 * Determinism: the flip randomness of access k, attempt a is drawn
 * from `base.split(k * kMaxAttempts + a)` — a pure function of the
 * per-map base stream and per-access counters, never of thread
 * scheduling (the same discipline as the Monte-Carlo engine, §7).
 */

#ifndef VBOOST_RESILIENCE_RESILIENT_MEMORY_HPP
#define VBOOST_RESILIENCE_RESILIENT_MEMORY_HPP

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "circuit/latency.hpp"
#include "core/canary.hpp"
#include "core/context.hpp"
#include "energy/supply_config.hpp"
#include "obs/metrics.hpp"
#include "resilience/monitor.hpp"
#include "resilience/policy.hpp"
#include "resilience/spare_table.hpp"
#include "sram/banked_memory.hpp"
#include "sram/clean_word_index.hpp"
#include "sram/ecc.hpp"

namespace vboost::resilience {

/** Counters of everything the resilience pipeline did and cost. */
struct ResilienceStats
{
    std::uint64_t reads = 0;
    std::uint64_t cleanReads = 0;
    std::uint64_t correctedReads = 0;
    /** Reads that needed at least one retry. */
    std::uint64_t retriedReads = 0;
    /** Total extra read attempts issued. */
    std::uint64_t retries = 0;
    /** Retries issued at a level above the bank's standing level. */
    std::uint64_t escalations = 0;
    /** Standing boost-level raises applied by the monitor. */
    std::uint64_t standingRaises = 0;
    /** Rows quarantined into spares. */
    std::uint64_t quarantines = 0;
    /** Reads served from a spare row. */
    std::uint64_t spareReads = 0;
    /** Quarantine requests dropped because spares ran out. */
    std::uint64_t spareExhausted = 0;
    /** Reads that exhausted the retry budget and returned detected-
     *  uncorrectable data (graceful degradation). */
    std::uint64_t uncorrected = 0;

    /** Energy of the retry attempts (also charged in the bank
     *  counters; tracked here to attribute the cost of resilience). */
    Joule retryEnergy{0.0};
    /** Energy of spare-row accesses (NOT in the bank counters). */
    Joule spareEnergy{0.0};
    /** Access-time latency added by retry attempts. */
    Second retryLatency{0.0};

    /** Digest of the spare-row table (see SpareRowTable::digest). */
    std::uint64_t spareTableDigest = 0;

    /** Combine another accumulator (map-order Monte-Carlo reduction;
     *  digests chain order-sensitively). */
    void merge(const ResilienceStats &other);
};

/** What one resilient read observed and returned. */
struct ReadOutcome
{
    /** Data handed to the consumer (corrected when possible). */
    std::uint64_t data = 0;
    /** Final ECC classification after retries. */
    sram::EccOutcome outcome = sram::EccOutcome::Clean;
    /** Attempts made (1 = first try sufficed). */
    int attempts = 1;
    /** Boost level of the final attempt. */
    int level = 0;
    /** Whether the read was served from a spare row. */
    bool fromSpare = false;
    /** Retry budget exhausted; `data` is the uncorrected word. */
    bool gaveUp = false;
};

/** ECC-protected, self-escalating, row-sparing memory wrapper. */
class ResilientMemory
{
  public:
    /**
     * @param mem underlying banked memory (must outlive the wrapper;
     *        its current boost levels are overwritten with
     *        policy.startLevel).
     * @param ctx study configuration (tech + failure + booster design,
     *        shared with the canary controller).
     * @param policy reaction policy (validated against mem's levels).
     */
    ResilientMemory(sram::BankedMemory &mem, const core::SimContext &ctx,
                    ResiliencePolicy policy);

    /**
     * Rebase the per-access randomness on a fresh stream (one per
     * Monte-Carlo map) and reset the access counter.
     */
    void reseed(const Rng &base);

    /** Write a word: data to the array, check bits to the side store.
     *  A quarantined row's spare image is kept coherent. */
    void writeWord(std::uint32_t addr, std::uint64_t data, Volt vdd);

    /** Read a word through the full resilient pipeline. */
    ReadOutcome readWord(std::uint32_t addr, Volt vdd,
                         const sram::VulnerabilityMap &map);

    /**
     * As above, with a clean-word index of `map` over this memory: a
     * primary-row attempt on a word with no faulty cell skips the
     * per-cell fault draws, which would change nothing (DESIGN.md §8).
     * Bitwise identical to the overload without an index. Fatals if
     * `index` was built for another map or memory.
     */
    ReadOutcome readWord(std::uint32_t addr, Volt vdd,
                         const sram::VulnerabilityMap &map,
                         const sram::CleanWordIndex &index);

    /**
     * Stage a run of words: write words[i] to address
     * (first + i) % words() and read it back through the indexed
     * pipeline, replacing words[i] with what the read returned.
     * Bitwise identical to writeWord() then readWord(addr, vdd, map,
     * index) word by word — read-back data, ResilienceStats, bank
     * counters and energies, monitor state, standing levels, spares
     * and the per-access streams of later reads (DESIGN.md §8). Fatals
     * if `index` belongs to another map or memory or `first` is out of
     * range. @return bits in which the read-back words differ from the
     * written ones.
     */
    std::uint64_t stageSpan(std::uint32_t first,
                            std::span<std::uint64_t> words, Volt vdd,
                            const sram::VulnerabilityMap &map,
                            const sram::CleanWordIndex &index);

    /** Build the clean-word index of `map` over `mem`'s data cells and
     *  the check cells a ResilientMemory wrapping `mem` uses. */
    static sram::CleanWordIndex cleanWordIndex(
        const sram::VulnerabilityMap &map, const sram::BankedMemory &mem);

    /** Stage a buffer of int16 values (4 per word), as the accelerator
     *  writes a weight tile. Partial edge words read-modify-write. */
    void writeWords16(std::uint32_t elem16,
                      const std::vector<std::int16_t> &values, Volt vdd);

    /** Read `count` int16 values back through the resilient pipeline. */
    std::vector<std::int16_t> readWords16(std::uint32_t elem16,
                                          std::uint32_t count, Volt vdd,
                                          const sram::VulnerabilityMap &map);

    /** Standing boost level of a bank (raises move it up). */
    int standingLevel(int bank) const;

    /** Counter snapshot with the spare-table digest filled in. */
    ResilienceStats snapshot() const;

    /** Reset counters, monitors, spares and standing levels (fresh
     *  Monte-Carlo map over the same memory). */
    void resetRuntimeState();

    /** The wrapped memory (bank counters hold the access energy). */
    sram::BankedMemory &memory() { return mem_; }
    const sram::BankedMemory &memory() const { return mem_; }

    const ResiliencePolicy &policy() const { return policy_; }
    const SpareRowTable &spares() const { return spares_; }
    const BankErrorMonitor &monitor() const { return monitor_; }

    /** Total SRAM energy including resilience: bank access + boost
     *  energy plus spare-row access energy. */
    Joule totalAccessEnergy() const;

    /**
     * Publish the pipeline's current state into a metrics registry
     * (DESIGN.md §11): retry/escalation/quarantine counters, retry and
     * spare energy sums, per-bank standing-level gauges and a per-bank
     * boost-energy histogram. `labels` is merged into every metric so
     * callers can scope the export (e.g. {{"mem","weight"}}). Call on
     * a serial path; values come from the deterministic counters, so
     * the export is thread-count invariant (§7).
     */
    void exportMetrics(obs::MetricsRegistry &reg,
                       const obs::Labels &labels = {}) const;

  private:
    /** readWord with an optional clean-word index. */
    ReadOutcome read(std::uint32_t addr, Volt vdd,
                     const sram::VulnerabilityMap &map,
                     const sram::CleanWordIndex *index);

    /** One read attempt; primary rows go through the real bank read
     *  path, spare rows manifest faults on the spare cell region.
     *  `stream` names the attempt's counter-split flip stream. */
    sram::EccDecodeResult attemptRead(std::uint32_t addr, int spare_slot,
                                      int level, Volt vdd,
                                      const sram::VulnerabilityMap &map,
                                      std::uint64_t stream,
                                      const sram::CleanWordIndex *index);

    /** Corrupt a check byte through the parity cell region; each
     *  faulty cell flips with probability `flip_prob`. */
    std::uint8_t corruptCheck(std::uint8_t check, std::uint64_t base_cell,
                              double fail_prob, double flip_prob,
                              const sram::VulnerabilityMap &map, Rng &rng);

    /** Raise a bank's standing level (canary-floored). */
    void raiseStandingLevel(int bank, Volt vdd,
                            const sram::VulnerabilityMap &map);

    /** Record a row error; quarantine past the threshold. */
    void recordRowError(std::uint32_t addr, int spare_slot);

    sram::BankedMemory &mem_;
    ResiliencePolicy policy_;
    energy::SupplyConfigurator supply_;
    sram::FailureRateModel failure_;
    circuit::LatencyModel latency_;
    core::CanaryController canary_;
    int maxLevel_;

    /** Check-bit side store, one byte per word. */
    std::vector<std::uint8_t> check_;
    /** Standing boost level per bank (mirrors mem_'s BIC state). */
    std::vector<int> standing_;
    /** First cell of the check-bit region in the global cell space. */
    std::uint64_t parityBase_;
    /** First cell of the spare-row region. */
    std::uint64_t spareBase_;

    BankErrorMonitor monitor_;
    SpareRowTable spares_;
    /** Uncorrectable-event count per offending row. Ordered map by
     *  design (VB002 hygiene): today only keyed lookups touch it, but
     *  any future iteration (debug dumps, digests) must not inherit
     *  hash-table order. The table is tiny (offender rows only), so
     *  the tree overhead is noise. */
    std::map<std::uint32_t, int> rowErrors_;

    Rng base_;
    std::uint64_t accessCounter_ = 0;
    ResilienceStats stats_;
};

} // namespace vboost::resilience

#endif // VBOOST_RESILIENCE_RESILIENT_MEMORY_HPP
