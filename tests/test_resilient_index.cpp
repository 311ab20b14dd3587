/**
 * @file
 * Differential tests for the clean-word index (DESIGN.md §8): every
 * read staged through ResilientMemory with a sram::CleanWordIndex must
 * match the per-cell scalar path bit for bit — outcome sequences,
 * ResilienceStats, spare-table digests, standing levels and bank
 * counters — on iid and clustered maps, open and closed loop, with
 * quarantined spare rows, flipProb 0 and 1, and the failProb >= 1
 * fallback. The index itself must agree with a per-cell scan, and
 * refuse a map or memory it was not built for. Staging in spans
 * (ResilientMemory::stageSpan) must match word-by-word writes and
 * indexed reads the same way, including the monitor state, the
 * read-back words and the access counter later reads draw from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "resilience/resilient_memory.hpp"
#include "sram/banked_memory.hpp"
#include "sram/clean_word_index.hpp"

namespace vboost::resilience {
namespace {

/** One staging run: a write pass, then `passes` read passes. */
struct Scenario
{
    sram::VulnerabilityMap map{5, 0};
    ResiliencePolicy policy = ResiliencePolicy::closedLoop();
    Volt vdd{0.44};
    double flipProb = 0.5;
    int passes = 2;
    core::SimContext ctx = core::SimContext::standard();
};

/** Everything a run leaves behind that the index must not change. */
struct Observed
{
    std::vector<ReadOutcome> outcomes;
    ResilienceStats stats;
    std::vector<sram::BankCounters> banks;
    std::vector<int> standing;
    double totalEnergy = 0.0;
};

Observed
stage(const Scenario &sc, bool indexed)
{
    sram::BankedMemory mem("idx_mem", 2, sc.ctx.design, sc.ctx.tech,
                           sram::FailureRateModel(sc.ctx.failure));
    mem.setFlipProb(sc.flipProb);
    ResilientMemory rmem(mem, sc.ctx, sc.policy);
    rmem.reseed(Rng(77));
    const sram::CleanWordIndex index =
        ResilientMemory::cleanWordIndex(sc.map, mem);

    Rng data(3);
    for (std::uint32_t addr = 0; addr < mem.words(); ++addr)
        rmem.writeWord(addr, data.next(), sc.vdd);
    Observed o;
    for (int pass = 0; pass < sc.passes; ++pass) {
        for (std::uint32_t addr = 0; addr < mem.words(); ++addr) {
            o.outcomes.push_back(
                indexed ? rmem.readWord(addr, sc.vdd, sc.map, index)
                        : rmem.readWord(addr, sc.vdd, sc.map));
        }
    }
    o.stats = rmem.snapshot();
    for (int b = 0; b < mem.banks(); ++b) {
        o.banks.push_back(mem.bankCounters(b));
        o.standing.push_back(rmem.standingLevel(b));
    }
    o.totalEnergy = rmem.totalAccessEnergy().value();
    return o;
}

/** Bitwise equality of two doubles (distinguishes -0.0 and NaNs). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const Observed &scalar, const Observed &indexed)
{
    ASSERT_EQ(scalar.outcomes.size(), indexed.outcomes.size());
    for (std::size_t i = 0; i < scalar.outcomes.size(); ++i) {
        const ReadOutcome &a = scalar.outcomes[i];
        const ReadOutcome &b = indexed.outcomes[i];
        ASSERT_EQ(a.data, b.data) << "read " << i;
        ASSERT_EQ(a.outcome, b.outcome) << "read " << i;
        ASSERT_EQ(a.attempts, b.attempts) << "read " << i;
        ASSERT_EQ(a.level, b.level) << "read " << i;
        ASSERT_EQ(a.fromSpare, b.fromSpare) << "read " << i;
        ASSERT_EQ(a.gaveUp, b.gaveUp) << "read " << i;
    }
    const ResilienceStats &s = scalar.stats;
    const ResilienceStats &t = indexed.stats;
    EXPECT_EQ(s.reads, t.reads);
    EXPECT_EQ(s.cleanReads, t.cleanReads);
    EXPECT_EQ(s.correctedReads, t.correctedReads);
    EXPECT_EQ(s.retriedReads, t.retriedReads);
    EXPECT_EQ(s.retries, t.retries);
    EXPECT_EQ(s.escalations, t.escalations);
    EXPECT_EQ(s.standingRaises, t.standingRaises);
    EXPECT_EQ(s.quarantines, t.quarantines);
    EXPECT_EQ(s.spareReads, t.spareReads);
    EXPECT_EQ(s.spareExhausted, t.spareExhausted);
    EXPECT_EQ(s.uncorrected, t.uncorrected);
    EXPECT_TRUE(sameBits(s.retryEnergy.value(), t.retryEnergy.value()));
    EXPECT_TRUE(sameBits(s.spareEnergy.value(), t.spareEnergy.value()));
    EXPECT_TRUE(sameBits(s.retryLatency.value(), t.retryLatency.value()));
    EXPECT_EQ(s.spareTableDigest, t.spareTableDigest);
    ASSERT_EQ(scalar.banks.size(), indexed.banks.size());
    for (std::size_t b = 0; b < scalar.banks.size(); ++b) {
        const sram::BankCounters &x = scalar.banks[b];
        const sram::BankCounters &y = indexed.banks[b];
        EXPECT_EQ(x.reads, y.reads) << "bank " << b;
        EXPECT_EQ(x.writes, y.writes) << "bank " << b;
        EXPECT_EQ(x.boostEvents, y.boostEvents) << "bank " << b;
        EXPECT_TRUE(sameBits(x.accessEnergy.value(), y.accessEnergy.value()))
            << "bank " << b;
        EXPECT_TRUE(sameBits(x.boostEnergy.value(), y.boostEnergy.value()))
            << "bank " << b;
    }
    EXPECT_EQ(scalar.standing, indexed.standing);
    EXPECT_TRUE(sameBits(scalar.totalEnergy, indexed.totalEnergy));
}

/** Run both paths and compare; returns the scalar run. */
Observed
expectIndexedMatchesScalar(const Scenario &sc)
{
    const Observed scalar = stage(sc, false);
    const Observed indexed = stage(sc, true);
    expectIdentical(scalar, indexed);
    return scalar;
}

const sram::ClusterParams kCluster; // codeword-aligned 576-cell rows

sram::VulnerabilityMap
clusteredMap(std::uint64_t seed)
{
    return sram::VulnerabilityMap(seed, 0, sram::MapModel::Clustered,
                                  kCluster);
}

Volt
voltageForRate(double rate)
{
    return sram::FailureRateModel(core::SimContext::standard().failure)
        .voltageForRate(rate);
}

TEST(ResilientIndex, CleanAgreesWithPerCellScan)
{
    const auto ctx = core::SimContext::standard();
    const sram::BankedMemory mem("scan_mem", 1, ctx.design, ctx.tech,
                                 sram::FailureRateModel(ctx.failure));
    const std::uint64_t check_base = 1ull << 38;
    for (const sram::VulnerabilityMap &map :
         {sram::VulnerabilityMap(9, 2), clusteredMap(9)}) {
        const sram::CleanWordIndex index(map, mem, check_base);
        for (const double f : {0.0, 1e-5, 1e-4, 1e-3, 1.4e-2, 0.2, 0.5}) {
            std::uint32_t clean_words = 0;
            for (std::uint32_t w = 0; w < mem.words(); ++w) {
                bool any = false;
                for (std::uint64_t b = 0; b < 64; ++b)
                    any = any || map.isFaulty(mem.cellIndex(w) + b, f);
                for (std::uint64_t b = 0; b < 8; ++b)
                    any = any || map.isFaulty(check_base + 8ull * w + b, f);
                ASSERT_EQ(index.clean(w, f), !any)
                    << "word " << w << " F " << f;
                clean_words += !any;
            }
            if (f == 0.0) {
                EXPECT_EQ(clean_words, mem.words());
            } else if (f >= 0.2) {
                EXPECT_LT(clean_words, mem.words());
            }
        }
        // F >= 1 always takes the per-cell path.
        EXPECT_FALSE(index.clean(0, 1.0));
    }
}

TEST(ResilientIndex, IidClosedLoopMatchesScalar)
{
    for (const double rate : {1e-4, 1e-3, 1.4e-2}) {
        Scenario sc;
        sc.vdd = voltageForRate(rate);
        sc.policy = ResiliencePolicy::closedLoop(3, Escalation::StepUp, 8);
        const Observed o = expectIndexedMatchesScalar(sc);
        EXPECT_GT(o.stats.cleanReads, 0u);
        if (rate >= 1e-2) {
            EXPECT_GT(o.stats.retries, 0u);
        }
    }
}

TEST(ResilientIndex, ClusteredClosedLoopMatchesScalar)
{
    for (const double rate : {1e-4, 1e-3, 1.4e-2}) {
        Scenario sc;
        sc.map = clusteredMap(5);
        sc.vdd = voltageForRate(rate);
        sc.policy = ResiliencePolicy::closedLoop(3, Escalation::MaxOut, 8);
        const Observed o = expectIndexedMatchesScalar(sc);
        if (rate >= 1e-3) {
            EXPECT_GT(o.stats.retries, 0u);
        }
    }
}

TEST(ResilientIndex, OpenLoopMatchesScalar)
{
    for (const int level : {0, 2}) {
        for (const bool clustered : {false, true}) {
            Scenario sc;
            sc.map = clustered ? clusteredMap(7) : sram::VulnerabilityMap(7, 0);
            sc.policy = ResiliencePolicy::openLoop(level);
            const Observed o = expectIndexedMatchesScalar(sc);
            EXPECT_EQ(o.stats.retries, 0u);
        }
    }
}

TEST(ResilientIndex, QuarantinedSpareRowsMatchScalar)
{
    // Brutal i.i.d. conditions with instant quarantine fill the spare
    // table; the clustered case quarantines chronic defective rows.
    Scenario brutal;
    brutal.map = sram::VulnerabilityMap(23, 0);
    brutal.vdd = Volt(0.40);
    brutal.policy = ResiliencePolicy::closedLoop(0, Escalation::Hold, 2);
    brutal.policy.quarantineThreshold = 1;
    brutal.passes = 3;
    const Observed a = expectIndexedMatchesScalar(brutal);
    EXPECT_GT(a.stats.spareReads, 0u);
    EXPECT_GT(a.stats.spareExhausted, 0u);

    Scenario chronic;
    chronic.map = clusteredMap(29);
    chronic.vdd = voltageForRate(1e-3);
    chronic.policy = ResiliencePolicy::closedLoop(0, Escalation::Hold, 2);
    chronic.policy.quarantineThreshold = 2;
    chronic.passes = 4;
    const Observed b = expectIndexedMatchesScalar(chronic);
    EXPECT_GT(b.stats.quarantines, 0u);
    EXPECT_GT(b.stats.spareReads, 0u);
}

TEST(ResilientIndex, FlipProbZeroAndOneMatchScalar)
{
    for (const double flip : {0.0, 1.0}) {
        for (const bool clustered : {false, true}) {
            Scenario sc;
            sc.map = clustered ? clusteredMap(13) : sram::VulnerabilityMap(13, 0);
            sc.flipProb = flip;
            const Observed o = expectIndexedMatchesScalar(sc);
            if (flip == 0.0) {
                EXPECT_EQ(o.stats.cleanReads, o.stats.reads);
            } else {
                EXPECT_GT(o.stats.correctedReads, 0u);
            }
        }
    }
}

TEST(ResilientIndex, FailProbOneFallsBackToScalar)
{
    // Below data retention with a saturating fit every cell reads at
    // F = 1: the index declines and the per-cell path runs.
    Scenario sc;
    sc.ctx.failure.maxRate = 1.0;
    sc.vdd = Volt(0.29);
    sc.passes = 1;
    for (const bool clustered : {false, true}) {
        sc.map = clustered ? clusteredMap(3) : sram::VulnerabilityMap(3, 0);
        const Observed o = expectIndexedMatchesScalar(sc);
        EXPECT_LT(o.stats.cleanReads, o.stats.reads);
    }
}

TEST(ResilientIndex, CorruptNetworkMatchesScalar)
{
    Rng rng(4);
    dnn::Network src;
    src.addLayer<dnn::Dense>(64, 200, rng, "fc1"); // wraps 2 banks
    src.addLayer<dnn::Relu>("r");
    src.addLayer<dnn::Dense>(200, 10, rng, "fc2");
    const auto ctx = core::SimContext::standard();
    for (const bool clustered : {false, true}) {
        const sram::VulnerabilityMap map =
            clustered ? clusteredMap(8) : sram::VulnerabilityMap(8, 0);
        auto run = [&](bool indexed) {
            sram::BankedMemory mem("net_mem", 2, ctx.design, ctx.tech,
                                   sram::FailureRateModel(ctx.failure));
            ResilientMemory rmem(mem, ctx, ResiliencePolicy::closedLoop());
            rmem.reseed(Rng(5));
            dnn::Network dst = src.clone();
            const Volt vdd = voltageForRate(1e-3);
            const std::uint64_t residual =
                indexed
                    ? fi::corruptNetworkResilient(
                          dst, src, rmem, vdd, map,
                          ResilientMemory::cleanWordIndex(map, mem))
                    : fi::corruptNetworkResilient(dst, src, rmem, vdd, map);
            std::vector<float> weights;
            for (const auto &p : dst.weightParams())
                weights.insert(weights.end(), p.value->data(),
                               p.value->data() + p.value->numel());
            const ResilienceStats s = rmem.snapshot();
            return std::tuple{residual, weights, s.reads, s.cleanReads,
                              s.retries, s.spareTableDigest,
                              rmem.totalAccessEnergy().value()};
        };
        EXPECT_EQ(run(false), run(true)) << "clustered " << clustered;
    }
}

/** A staging run: the same `count` words written and read back from
 *  address `first` on, `passes` times over. */
struct SpanRun
{
    Scenario sc;
    std::uint32_t first = 0;
    std::size_t count = 0;
    /** When >= 0, every bank's BIC is set to this level before each
     *  pass, as a caller driving the chip's memory directly may. */
    int bicLevel = -1;
};

/** What a staging run leaves behind besides Observed. */
struct Staged
{
    /** Stats, counters and standing levels after staging; outcomes of
     *  a per-cell probe read of every word afterwards, which sees the
     *  stored words, check bytes and per-access streams. */
    Observed observed;
    std::vector<std::uint64_t> readBack;
    std::uint64_t residual = 0;
    std::vector<double> rates;
};

/** Stage `run` word by word (span_len 0) or in spans of span_len. */
Staged
stageRun(const SpanRun &run, std::size_t span_len)
{
    const Scenario &sc = run.sc;
    sram::BankedMemory mem("span_mem", 2, sc.ctx.design, sc.ctx.tech,
                           sram::FailureRateModel(sc.ctx.failure));
    mem.setFlipProb(sc.flipProb);
    ResilientMemory rmem(mem, sc.ctx, sc.policy);
    rmem.reseed(Rng(77));
    const sram::CleanWordIndex index =
        ResilientMemory::cleanWordIndex(sc.map, mem);
    const std::uint32_t capacity = mem.words();

    Rng data(3);
    std::vector<std::uint64_t> words(run.count);
    for (std::uint64_t &w : words)
        w = data.next();
    Staged st;
    for (int pass = 0; pass < sc.passes; ++pass) {
        if (run.bicLevel >= 0)
            mem.setAllBoostLevels(run.bicLevel);
        if (span_len == 0) {
            for (std::size_t i = 0; i < words.size(); ++i) {
                const auto addr =
                    static_cast<std::uint32_t>((run.first + i) % capacity);
                rmem.writeWord(addr, words[i], sc.vdd);
                const std::uint64_t out =
                    rmem.readWord(addr, sc.vdd, sc.map, index).data;
                st.residual += static_cast<std::uint64_t>(
                    std::popcount(words[i] ^ out));
                st.readBack.push_back(out);
            }
            continue;
        }
        for (std::size_t i = 0; i < words.size(); i += span_len) {
            std::vector<std::uint64_t> span(
                words.begin() + static_cast<std::ptrdiff_t>(i),
                words.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(i + span_len, words.size())));
            st.residual += rmem.stageSpan(
                static_cast<std::uint32_t>((run.first + i) % capacity),
                span, sc.vdd, sc.map, index);
            st.readBack.insert(st.readBack.end(), span.begin(), span.end());
        }
    }
    Observed &o = st.observed;
    o.stats = rmem.snapshot();
    for (int b = 0; b < mem.banks(); ++b) {
        o.banks.push_back(mem.bankCounters(b));
        o.standing.push_back(rmem.standingLevel(b));
        st.rates.push_back(rmem.monitor().rate(b));
    }
    o.totalEnergy = rmem.totalAccessEnergy().value();
    for (std::uint32_t addr = 0; addr < capacity; ++addr)
        o.outcomes.push_back(rmem.readWord(addr, sc.vdd, sc.map));
    return st;
}

/** Spans of several lengths (one covering the whole run) against the
 *  word-by-word run; returns the word-by-word run. */
Staged
expectSpansMatchWordByWord(const SpanRun &run)
{
    const Staged ref = stageRun(run, 0);
    for (const std::size_t len : {std::size_t{1}, std::size_t{7},
                                  std::size_t{256}, run.count}) {
        SCOPED_TRACE(testing::Message() << "span length " << len);
        const Staged got = stageRun(run, len);
        expectIdentical(ref.observed, got.observed);
        EXPECT_EQ(ref.readBack, got.readBack);
        EXPECT_EQ(ref.residual, got.residual);
        EXPECT_EQ(ref.rates.size(), got.rates.size());
        for (std::size_t b = 0; b < ref.rates.size() && b < got.rates.size();
             ++b)
            EXPECT_TRUE(sameBits(ref.rates[b], got.rates[b])) << "bank " << b;
    }
    return ref;
}

/** A run of 2.5 laps of the 2-bank memory, starting near its end. */
SpanRun
multiLap(const Scenario &sc)
{
    return SpanRun{sc, 2000, 5120};
}

TEST(ResilientSpan, IidAndClusteredClosedLoopMatchWordByWord)
{
    for (const bool clustered : {false, true}) {
        for (const double rate : {1e-4, 1.4e-2}) {
            Scenario sc;
            sc.map = clustered ? clusteredMap(5) : sram::VulnerabilityMap(5, 0);
            sc.vdd = voltageForRate(rate);
            sc.policy = ResiliencePolicy::closedLoop(3, Escalation::StepUp, 8);
            const Staged st = expectSpansMatchWordByWord(multiLap(sc));
            const ResilienceStats &s = st.observed.stats;
            EXPECT_GT(s.cleanReads, 0u);
            EXPECT_LT(s.cleanReads, s.reads);
            if (rate >= 1e-2) {
                EXPECT_GT(s.retries, 0u);
            }
        }
    }
}

TEST(ResilientSpan, OpenLoopMatchesWordByWord)
{
    for (const int level : {0, 2}) {
        for (const bool clustered : {false, true}) {
            Scenario sc;
            sc.map = clustered ? clusteredMap(7) : sram::VulnerabilityMap(7, 0);
            sc.policy = ResiliencePolicy::openLoop(level);
            const Staged st = expectSpansMatchWordByWord(multiLap(sc));
            EXPECT_EQ(st.observed.stats.retries, 0u);
            if (level == 0) {
                EXPECT_LT(st.observed.stats.cleanReads,
                          st.observed.stats.reads);
            }
        }
    }
}

TEST(ResilientSpan, StandingRaiseMidSpanTakesEffectAtTheSameWord)
{
    // Every first-attempt error raises the bank at once, so the
    // first faulty words of each bank raise it in the middle of a
    // span, and the clean words after them must pay the new level.
    for (const bool clustered : {false, true}) {
        Scenario sc;
        sc.map = clustered ? clusteredMap(11) : sram::VulnerabilityMap(11, 0);
        sc.vdd = voltageForRate(1e-3);
        sc.policy = ResiliencePolicy::closedLoop(2, Escalation::StepUp, 8);
        sc.policy.ewmaAlpha = 1.0;
        sc.policy.raiseThreshold = 0.5;
        sc.passes = 1;
        const Staged st = expectSpansMatchWordByWord(SpanRun{sc, 0, 2048});
        EXPECT_GT(st.observed.stats.standingRaises, 0u);
        for (const int level : st.observed.standing)
            EXPECT_GT(level, sc.policy.startLevel);
    }
}

TEST(ResilientSpan, BicOffTheStandingLevelMatchesWordByWord)
{
    // A bank whose BIC sits off its standing level writes its first
    // word there and reads it at the standing level, so that word may
    // not take the bulk path.
    ResiliencePolicy closed = ResiliencePolicy::closedLoop();
    closed.startLevel = 2;
    for (const bool clustered : {false, true}) {
        Scenario sc;
        sc.map = clustered ? clusteredMap(17) : sram::VulnerabilityMap(17, 0);
        for (const auto &[policy, bic] :
             {std::pair{ResiliencePolicy::openLoop(0), 2},
              std::pair{closed, 0}}) {
            sc.policy = policy;
            SpanRun run = multiLap(sc);
            run.bicLevel = bic;
            expectSpansMatchWordByWord(run);
        }
    }
}

TEST(ResilientSpan, QuarantinedSpareRowsMatchWordByWord)
{
    Scenario brutal;
    brutal.map = sram::VulnerabilityMap(23, 0);
    brutal.vdd = Volt(0.40);
    brutal.policy = ResiliencePolicy::closedLoop(0, Escalation::Hold, 2);
    brutal.policy.quarantineThreshold = 1;
    brutal.passes = 3;
    const Staged a = expectSpansMatchWordByWord(multiLap(brutal));
    EXPECT_GT(a.observed.stats.spareReads, 0u);
    EXPECT_GT(a.observed.stats.spareExhausted, 0u);

    Scenario chronic;
    chronic.map = clusteredMap(29);
    chronic.vdd = voltageForRate(1e-3);
    chronic.policy = ResiliencePolicy::closedLoop(0, Escalation::Hold, 2);
    chronic.policy.quarantineThreshold = 2;
    chronic.passes = 4;
    const Staged b = expectSpansMatchWordByWord(multiLap(chronic));
    EXPECT_GT(b.observed.stats.quarantines, 0u);
    EXPECT_GT(b.observed.stats.spareReads, 0u);
}

TEST(ResilientSpan, FlipProbZeroAndOneMatchWordByWord)
{
    for (const double flip : {0.0, 1.0}) {
        for (const bool clustered : {false, true}) {
            Scenario sc;
            sc.map = clustered ? clusteredMap(13) : sram::VulnerabilityMap(13, 0);
            sc.flipProb = flip;
            const Staged st = expectSpansMatchWordByWord(multiLap(sc));
            if (flip == 0.0) {
                EXPECT_EQ(st.residual, 0u);
            } else {
                EXPECT_GT(st.observed.stats.correctedReads, 0u);
            }
        }
    }
}

TEST(ResilientSpan, FailProbOneMatchesWordByWord)
{
    // Every cell reads at F = 1: no word takes the bulk path.
    Scenario sc;
    sc.ctx.failure.maxRate = 1.0;
    sc.vdd = Volt(0.29);
    sc.passes = 1;
    for (const bool clustered : {false, true}) {
        sc.map = clustered ? clusteredMap(3) : sram::VulnerabilityMap(3, 0);
        const Staged st = expectSpansMatchWordByWord(SpanRun{sc, 100, 600});
        EXPECT_LT(st.observed.stats.cleanReads, st.observed.stats.reads);
    }
}

TEST(ResilientIndex, RejectsForeignMapOrMemory)
{
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    sram::BankedMemory mem("mem", 2, ctx.design, ctx.tech, failure);
    ResilientMemory rmem(mem, ctx, ResiliencePolicy::closedLoop());
    rmem.writeWord(0, 42, Volt(0.5));
    const sram::VulnerabilityMap map(5, 0);
    const sram::CleanWordIndex index =
        ResilientMemory::cleanWordIndex(map, mem);
    EXPECT_NO_THROW(rmem.readWord(0, Volt(0.5), map, index));

    // Another map: a different seed, or the same draws under another
    // spatial model or cluster structure.
    EXPECT_THROW(rmem.readWord(0, Volt(0.5), sram::VulnerabilityMap(6, 0),
                               index),
                 FatalError);
    EXPECT_THROW(rmem.readWord(0, Volt(0.5), clusteredMap(5), index),
                 FatalError);
    sram::ClusterParams other = kCluster;
    other.defectBoost = 4.0;
    const sram::CleanWordIndex clustered_index =
        ResilientMemory::cleanWordIndex(clusteredMap(5), mem);
    EXPECT_THROW(rmem.readWord(0, Volt(0.5),
                               sram::VulnerabilityMap(
                                   5, 0, sram::MapModel::Clustered, other),
                               clustered_index),
                 FatalError);

    // The span call checks the same, and its first address.
    std::vector<std::uint64_t> span(4, 42);
    EXPECT_NO_THROW(rmem.stageSpan(0, span, Volt(0.5), map, index));
    EXPECT_THROW(rmem.stageSpan(0, span, Volt(0.5),
                                sram::VulnerabilityMap(6, 0), index),
                 FatalError);
    EXPECT_THROW(rmem.stageSpan(0, span, Volt(0.5), clusteredMap(5), index),
                 FatalError);
    EXPECT_THROW(rmem.stageSpan(mem.words(), span, Volt(0.5), map, index),
                 FatalError);

    // Another memory: shifted cell base, or a different size.
    sram::BankedMemory shifted("shifted", 2, ctx.design, ctx.tech, failure,
                               2 * sram::SramBank::kBits);
    sram::BankedMemory larger("larger", 3, ctx.design, ctx.tech, failure);
    for (sram::BankedMemory *other_mem : {&shifted, &larger}) {
        ResilientMemory other_rmem(*other_mem, ctx,
                                   ResiliencePolicy::closedLoop());
        other_rmem.writeWord(0, 42, Volt(0.5));
        EXPECT_THROW(other_rmem.readWord(0, Volt(0.5), map, index),
                     FatalError)
            << other_mem->name();
        EXPECT_THROW(other_rmem.stageSpan(0, span, Volt(0.5), map, index),
                     FatalError)
            << other_mem->name();
        EXPECT_NO_THROW(other_rmem.readWord(
            0, Volt(0.5), map,
            ResilientMemory::cleanWordIndex(map, *other_mem)));
    }
}

TEST(ResilientMemoryCheckBits, FlipsFollowTheAddressedBank)
{
    // Per-bank flip probabilities: bank 0 never flips a faulty cell,
    // bank 1 always does. A bank-1 read must then flip exactly its
    // faulty data *and* check cells, and a bank-0 read nothing.
    const auto ctx = core::SimContext::standard();
    sram::BankedMemory mem("flip_mem", 2, ctx.design, ctx.tech,
                           sram::FailureRateModel(ctx.failure));
    mem.bank(0).setFlipProb(0.0);
    mem.bank(1).setFlipProb(1.0);
    ResilientMemory rmem(mem, ctx, ResiliencePolicy::openLoop(0));
    rmem.reseed(Rng(1));
    const sram::VulnerabilityMap map(19, 0);
    const Volt vdd{0.44};
    const double fail = mem.bank(1).failProbAt(vdd);
    const std::uint64_t parity_base = (1ull << 38) + mem.cellBase();

    Rng data(2);
    std::uint64_t bank1_check_flips = 0;
    for (std::uint32_t addr = 0; addr < mem.words(); ++addr) {
        const std::uint64_t word = data.next();
        rmem.writeWord(addr, word, vdd);
        const ReadOutcome out = rmem.readWord(addr, vdd, map);
        if (mem.bankOf(addr) == 0) {
            ASSERT_EQ(out.outcome, sram::EccOutcome::Clean) << addr;
            ASSERT_EQ(out.data, word) << addr;
            continue;
        }
        std::uint64_t d = word;
        for (std::uint64_t b = 0; b < 64; ++b)
            if (map.isFaulty(mem.cellIndex(addr) + b, fail))
                d ^= 1ull << b;
        std::uint8_t c = sram::SecdedCodec::encode(word);
        for (std::uint64_t b = 0; b < 8; ++b) {
            if (map.isFaulty(parity_base + 8ull * addr + b, fail)) {
                c = static_cast<std::uint8_t>(c ^ (1u << b));
                ++bank1_check_flips;
            }
        }
        const sram::EccDecodeResult want = sram::SecdedCodec::decode(d, c);
        ASSERT_EQ(out.data, want.data) << addr;
        ASSERT_EQ(out.outcome, want.outcome) << addr;
    }
    EXPECT_GT(bank1_check_flips, 0u);
}

} // namespace
} // namespace vboost::resilience
