/**
 * @file
 * Tests for the timing-speculative datapath (DESIGN.md §13): the
 * alpha-power timing-error model (monotonicity, guardbanded worst-case
 * period, safe-voltage search), the replay policy validation, and the
 * Razor datapath itself — detect-and-replay bookkeeping, the EWMA
 * escalation ladder, worst-case clock stretch, §7 determinism of the
 * violation stream, and exact reconciliation between stats() and the
 * exported observability metrics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/tech.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "timing/replay_policy.hpp"
#include "timing/speculative_datapath.hpp"
#include "timing/timing_model.hpp"

namespace vboost::timing {
namespace {

const circuit::TechnologyParams tech =
    circuit::TechnologyParams::default14nm();

/** The VLV-mode 50 MHz clock the paper's Table 1 specifies. */
const Hertz kVlvClock{50e6};
const Second kVlvPeriod{1.0 / 50e6};

TimingErrorModel
model()
{
    return TimingErrorModel(tech, TimingParams{});
}

// ------------------------------------------------------ TimingParams

TEST(TimingParams, ValidateRejectsBadKnobs)
{
    TimingParams p;
    p.stageFractions = {};
    EXPECT_THROW(p.validate(), FatalError);

    p = TimingParams{};
    p.stageFractions = {1.0, 1.2}; // above the full datapath delay
    EXPECT_THROW(p.validate(), FatalError);

    p = TimingParams{};
    p.slackSigma = 0.0;
    EXPECT_THROW(p.validate(), FatalError);

    p = TimingParams{};
    p.pathsPerOp = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = TimingParams{};
    p.delayAtNominal = Second(0.0);
    EXPECT_THROW(p.validate(), FatalError);
}

// -------------------------------------------------- TimingErrorModel

TEST(TimingErrorModel, DelayAnchoredAtNominalClock)
{
    const auto m = model();
    // The datapath closes timing at the 330 MHz nominal logic clock
    // with zero margin: delay(0.8 V) == 1/330 MHz.
    EXPECT_NEAR(m.datapathDelay(tech.nominalVdd).value(),
                TimingParams{}.delayAtNominal.value(), 1e-15);
}

TEST(TimingErrorModel, DelayGrowsAsVoltageDrops)
{
    const auto m = model();
    EXPECT_GT(m.datapathDelay(0.34_V), m.datapathDelay(0.40_V));
    EXPECT_GT(m.datapathDelay(0.40_V), m.datapathDelay(0.80_V));
    EXPECT_THROW(m.datapathDelay(Volt(tech.thresholdVoltage.value())),
                 FatalError);
}

TEST(TimingErrorModel, ErrorProbMonotoneInVoltageAndPeriod)
{
    const auto m = model();
    // Decreasing in voltage at a fixed period...
    double prev = 1.1;
    for (double v : {0.31, 0.33, 0.35, 0.37, 0.40}) {
        const double p = m.opErrorProb(Volt(v), kVlvPeriod);
        EXPECT_LE(p, prev) << "not monotone at " << v << " V";
        prev = p;
    }
    // ...and decreasing in period at a fixed voltage (the replay
    // slowdown mechanism relies on this).
    const double fast = m.opErrorProb(0.33_V, kVlvPeriod);
    const double slow =
        m.opErrorProb(0.33_V, Second(2.0 * kVlvPeriod.value()));
    EXPECT_LT(slow, fast);
    EXPECT_GT(fast, 0.5); // 0.33 V is deep in the violation regime
}

TEST(TimingErrorModel, StageZeroIsTheDeepestStage)
{
    const auto m = model();
    const double s0 = m.stageErrorProb(0, 0.33_V, kVlvPeriod);
    for (int s = 1; s < TimingParams{}.numStages(); ++s)
        EXPECT_GE(s0, m.stageErrorProb(s, 0.33_V, kVlvPeriod));
}

TEST(TimingErrorModel, WorstCasePeriodCoversTheGuardband)
{
    const auto m = model();
    const Second delay = m.datapathDelay(0.34_V);
    const Second wc = m.worstCasePeriod(0.34_V, 4.0);
    EXPECT_GT(wc.value(), delay.value());
    // A clock at the worst-case period leaves only far-tail error
    // mass (stage 0 sits exactly guardband_sigmas out).
    EXPECT_LT(m.opErrorProb(0.34_V, wc), 1e-2);
    EXPECT_LT(m.opErrorProb(0.34_V, wc),
              m.opErrorProb(0.34_V, delay));
    // More guardband, longer period.
    EXPECT_GT(m.worstCasePeriod(0.34_V, 6.0), wc);
}

TEST(TimingErrorModel, SafeVoltageMeetsTheResidualBound)
{
    const auto m = model();
    const Volt safe = m.safeVoltage(kVlvPeriod, 1e-12);
    EXPECT_LE(m.opErrorProb(safe, kVlvPeriod), 1e-12);
    // One grid step below the safe rail must violate the bound
    // (otherwise the search did not return the smallest voltage).
    EXPECT_GT(m.opErrorProb(Volt(safe.value() - 1e-3), kVlvPeriod),
              1e-12);
}

// -------------------------------------------------------- ReplayPolicy

TEST(ReplayPolicy, ValidateRejectsBadKnobs)
{
    ReplayPolicy p;
    p.replayBudget = -1;
    EXPECT_THROW(p.validate(), FatalError);

    p = ReplayPolicy{};
    p.replayBudget = ReplayPolicy::kMaxIssues; // budget+1 issues > max
    EXPECT_THROW(p.validate(), FatalError);

    p = ReplayPolicy{};
    p.replaySlowdown = 0.5;
    EXPECT_THROW(p.validate(), FatalError);

    p = ReplayPolicy{};
    p.stepSize = Volt(0.0);
    EXPECT_THROW(p.validate(), FatalError);

    EXPECT_NO_THROW(ReplayPolicy::razor(0).validate()); // detect-only
    EXPECT_NO_THROW(ReplayPolicy::worstCase().validate());
}

TEST(ReplayPolicy, NamesAreStable)
{
    EXPECT_EQ(ReplayPolicy::worstCase().name(), "worstcase");
    EXPECT_EQ(ReplayPolicy::razor().name(), "razor/r3/stepup");
    EXPECT_EQ(ReplayPolicy::razor(1, Escalation::MaxOut).name(),
              "razor/r1/maxout");
    EXPECT_EQ(ReplayPolicy::razor(0, Escalation::Hold).name(),
              "razor/r0/hold");
}

// ------------------------------------------------ SpeculativeDatapath

SpeculativeDatapath
datapath(const ReplayPolicy &policy, Volt v)
{
    return SpeculativeDatapath(tech, TimingParams{}, policy, v,
                               kVlvClock);
}

TEST(SpeculativeDatapath, CleanAboveTheCliff)
{
    // 0.38 V closes timing at 50 MHz with margin: no violations, no
    // replays, and per-op energy only.
    auto dp = datapath(ReplayPolicy::razor(), 0.38_V);
    dp.reseed(42);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 5000, corrupted);
    EXPECT_TRUE(corrupted.empty());
    EXPECT_EQ(dp.stats().ops, 5000u);
    EXPECT_EQ(dp.stats().errors, 0u);
    EXPECT_EQ(dp.stats().replays, 0u);
    EXPECT_EQ(dp.stats().stepUps, 0u);
    EXPECT_GT(dp.stats().logicEnergy.value(), 0.0);
    EXPECT_EQ(dp.stats().replayEnergy.value(), 0.0);
}

TEST(SpeculativeDatapath, ReplaysAbsorbTheCliffAndLadderEscalates)
{
    // 0.32 V: every first issue violates (p0 ~ 1) but a 2x-slowdown
    // replay always closes (p1 ~ 0). Replays absorb the transient
    // until the EWMA monitors cross and the ladder steps the standing
    // voltage out of the violation regime.
    auto dp = datapath(ReplayPolicy::razor(), 0.32_V);
    dp.reseed(7);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 5000, corrupted);
    EXPECT_TRUE(corrupted.empty()); // replays always rescued the op
    EXPECT_GT(dp.stats().errors, 0u);
    EXPECT_GT(dp.stats().replays, 0u);
    EXPECT_GT(dp.stats().stepUps, 0u);
    EXPECT_GT(dp.standingVoltage(), 0.32_V);
    EXPECT_LE(dp.standingVoltage(), dp.safeVoltage());
    // Out of the violation regime: the climbed rung's residual
    // first-issue error is orders of magnitude below the cliff's
    // p ~ 1, and every survivor is still caught by replay (the
    // corrupted list above stayed empty).
    EXPECT_LT(dp.currentOpErrorProb(), 1e-4);
    EXPECT_GT(dp.stats().replayEnergy.value(), 0.0);
    EXPECT_GT(dp.stats().replayCycles, 0u);
    EXPECT_GT(dp.stats().bubbleCycles, 0u);
    // A speculative design runs at the target clock.
    EXPECT_DOUBLE_EQ(dp.cycleStretch(), 1.0);
}

TEST(SpeculativeDatapath, DetectOnlyCommitsCorruptedResults)
{
    // Budget 0 with Hold escalation: violations are detected but
    // never replayed and the rail never moves, so every violating op
    // commits a corrupted result.
    auto dp = datapath(ReplayPolicy::razor(0, Escalation::Hold),
                       0.32_V);
    dp.reseed(9);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 500, corrupted);
    EXPECT_EQ(dp.stats().replays, 0u);
    EXPECT_GT(dp.stats().corrupted, 0u);
    EXPECT_EQ(dp.stats().corrupted, corrupted.size());
    EXPECT_EQ(dp.stats().corrupted, dp.stats().errors);
    EXPECT_EQ(dp.stats().stepUps, 0u);
    EXPECT_DOUBLE_EQ(dp.standingVoltage().value(), 0.32);
}

TEST(SpeculativeDatapath, MaxOutJumpsToTheSafeRail)
{
    auto dp = datapath(ReplayPolicy::razor(3, Escalation::MaxOut),
                       0.32_V);
    dp.reseed(11);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 2000, corrupted);
    EXPECT_GE(dp.stats().fallbacks, 1u);
    EXPECT_DOUBLE_EQ(dp.standingVoltage().value(),
                     dp.safeVoltage().value());
    EXPECT_LE(dp.currentOpErrorProb(), 1e-12);
}

TEST(SpeculativeDatapath, WorstCaseStretchesTheClockAndNeverErrs)
{
    auto dp = datapath(ReplayPolicy::worstCase(), 0.32_V);
    dp.reseed(13);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 2000, corrupted);
    EXPECT_TRUE(corrupted.empty());
    EXPECT_EQ(dp.stats().errors, 0u);
    EXPECT_EQ(dp.stats().replays, 0u);
    // 0.32 V cannot close 50 MHz worst-case: the clock stretches.
    EXPECT_GT(dp.cycleStretch(), 1.0);
    EXPECT_GT(dp.effectivePeriod().value(), kVlvPeriod.value());
    // Above the cliff the guardbanded period fits and no stretch.
    auto fast = datapath(ReplayPolicy::worstCase(), 0.40_V);
    EXPECT_DOUBLE_EQ(fast.cycleStretch(), 1.0);
}

TEST(SpeculativeDatapath, ViolationStreamIsDeterministic)
{
    // Same stream key -> bitwise identical stats including the replay
    // digest; a different key decorrelates the violation pattern.
    // Hold the rung so the whole 3000-op Bernoulli stream (p ~ 0.89)
    // feeds the digest instead of a short pre-escalation prefix.
    const auto hold = ReplayPolicy::razor(3, Escalation::Hold);
    std::vector<std::uint64_t> ca, cb, cc;
    auto a = datapath(hold, 0.33_V);
    auto b = datapath(hold, 0.33_V);
    auto c = datapath(hold, 0.33_V);
    a.reseed(1234);
    b.reseed(1234);
    c.reseed(4321);
    a.executeOps(0, 3000, ca);
    b.executeOps(0, 3000, cb);
    c.executeOps(0, 3000, cc);
    EXPECT_EQ(a.stats().errors, b.stats().errors);
    EXPECT_EQ(a.stats().replays, b.stats().replays);
    EXPECT_EQ(a.stats().replayDigest, b.stats().replayDigest);
    EXPECT_EQ(a.stats().logicEnergy.value(),
              b.stats().logicEnergy.value());
    EXPECT_EQ(ca, cb);
    EXPECT_NE(a.stats().replayDigest, c.stats().replayDigest);
}

TEST(SpeculativeDatapath, ReseedResetsRuntimeState)
{
    auto dp = datapath(ReplayPolicy::razor(), 0.32_V);
    dp.reseed(5);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 3000, corrupted);
    const auto first = dp.stats();
    EXPECT_GT(dp.standingVoltage(), 0.32_V);
    // reseed() drops the climbed rung, the monitors and the stats:
    // the second run reproduces the first bitwise.
    dp.reseed(5);
    EXPECT_EQ(dp.stats().ops, 0u);
    EXPECT_DOUBLE_EQ(dp.standingVoltage().value(), 0.32);
    corrupted.clear();
    dp.executeOps(0, 3000, corrupted);
    EXPECT_EQ(dp.stats().errors, first.errors);
    EXPECT_EQ(dp.stats().replayDigest, first.replayDigest);
}

TEST(TimingStats, MergeIsOrderSensitiveOnTheDigest)
{
    // Counters add commutatively; the digest chains in map order, so
    // a reordered merge is detectable — the §7 reduction contract.
    // Hold the rung so each run's digest reflects its own full
    // violation stream and the two operands genuinely differ.
    const auto hold = ReplayPolicy::razor(3, Escalation::Hold);
    std::vector<std::uint64_t> c1, c2;
    auto a = datapath(hold, 0.33_V);
    auto b = datapath(hold, 0.33_V);
    a.reseed(100);
    b.reseed(200);
    a.executeOps(0, 1500, c1);
    b.executeOps(0, 1500, c2);

    TimingStats ab = a.stats();
    ab.merge(b.stats());
    TimingStats ba = b.stats();
    ba.merge(a.stats());
    EXPECT_EQ(ab.ops, ba.ops);
    EXPECT_EQ(ab.errors, ba.errors);
    EXPECT_EQ(ab.replays, ba.replays);
    EXPECT_NE(ab.replayDigest, ba.replayDigest);
}

TEST(SpeculativeDatapath, ExportedMetricsReconcileWithStats)
{
    auto dp = datapath(ReplayPolicy::razor(), 0.32_V);
    dp.reseed(77);
    std::vector<std::uint64_t> corrupted;
    dp.executeOps(0, 4000, corrupted);
    const auto &s = dp.stats();

    obs::MetricsRegistry reg;
    const obs::Labels labels{{"cell", "test"}};
    dp.exportMetrics(reg, labels);
    EXPECT_EQ(reg.counter("timing.ops", labels).value(), s.ops);
    EXPECT_EQ(reg.counter("timing.errors", labels).value(), s.errors);
    EXPECT_EQ(reg.counter("timing.replays", labels).value(), s.replays);
    EXPECT_EQ(reg.counter("timing.corrupted", labels).value(),
              s.corrupted);
    EXPECT_EQ(reg.counter("timing.step_ups", labels).value(), s.stepUps);
    EXPECT_EQ(reg.counter("timing.replay_cycles", labels).value(),
              s.replayCycles);
    EXPECT_EQ(reg.counter("timing.bubble_cycles", labels).value(),
              s.bubbleCycles);
    // Energy attribution reconciles exactly — the same doubles, not
    // an approximation (DESIGN.md §11 discipline).
    EXPECT_EQ(reg.sum("timing.energy.logic_j", labels).value(),
              s.logicEnergy.value());
    EXPECT_EQ(reg.sum("timing.energy.replay_j", labels).value(),
              s.replayEnergy.value());
    EXPECT_EQ(reg.gauge("timing.standing_v", labels).value(),
              dp.standingVoltage().value());
    // Replay energy is a strict subset of issue energy.
    EXPECT_LT(s.replayEnergy.value(), s.logicEnergy.value());
}

TEST(SpeculativeDatapath, EnergyScalesWithTheStandingRail)
{
    // An op at a higher standing voltage costs more issue energy
    // (CV^2): two clean runs at different rails order correctly.
    std::vector<std::uint64_t> c;
    auto lo = datapath(ReplayPolicy::razor(), 0.38_V);
    auto hi = datapath(ReplayPolicy::razor(), 0.50_V);
    lo.reseed(3);
    hi.reseed(3);
    lo.executeOps(0, 1000, c);
    hi.executeOps(0, 1000, c);
    EXPECT_EQ(lo.stats().errors, 0u);
    EXPECT_EQ(hi.stats().errors, 0u);
    EXPECT_LT(lo.stats().logicEnergy.value(),
              hi.stats().logicEnergy.value());
}

} // namespace
} // namespace vboost::timing
