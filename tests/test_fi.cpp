/**
 * @file
 * Tests for the fault-injection harness: injector targeting, flip
 * accounting, Monte-Carlo experiment statistics, the accuracy-curve
 * interpolator, and the core monotone degradation property.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/logging.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/accuracy_curve.hpp"
#include "fi/experiment.hpp"
#include "recovery/recovery.hpp"

namespace vboost::fi {
namespace {

/** Small trainable network shared by the harness tests. */
dnn::Network
smallNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(16, 24, rng, "fc1");
    net.addLayer<dnn::Relu>("r1");
    net.addLayer<dnn::Dense>(24, 24, rng, "fc2");
    net.addLayer<dnn::Relu>("r2");
    net.addLayer<dnn::Dense>(24, 4, rng, "fc3");
    return net;
}

/** Tiny 4-class dataset of separable Gaussian blobs in 16-D. */
dnn::Dataset
blobs(int n, std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Dataset ds;
    ds.images = dnn::Tensor({n, 16});
    ds.labels.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const int cls = static_cast<int>(rng.uniformInt(4));
        ds.labels[static_cast<std::size_t>(i)] = cls;
        for (int j = 0; j < 16; ++j) {
            const double center = (j % 4 == cls) ? 1.0 : 0.0;
            ds.images.at(i, j) =
                static_cast<float>(rng.normal(center, 0.15));
        }
    }
    return ds;
}

class FiTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        net_ = new dnn::Network(smallNet(1));
        train_ = new dnn::Dataset(blobs(600, 11));
        test_ = new dnn::Dataset(blobs(300, 12));
        dnn::TrainConfig cfg;
        cfg.epochs = 8;
        dnn::SgdTrainer trainer(cfg);
        Rng rng(2);
        trainer.train(*net_, *train_, rng);
        dnn::clipParameters(*net_, 0.5f);
    }

    static void
    TearDownTestSuite()
    {
        delete net_;
        delete train_;
        delete test_;
        net_ = nullptr;
        train_ = nullptr;
        test_ = nullptr;
    }

    static dnn::Network *net_;
    static dnn::Dataset *train_;
    static dnn::Dataset *test_;
};

dnn::Network *FiTest::net_ = nullptr;
dnn::Dataset *FiTest::train_ = nullptr;
dnn::Dataset *FiTest::test_ = nullptr;

TEST_F(FiTest, TrainedModelIsAccurate)
{
    EXPECT_GT(dnn::SgdTrainer::evaluate(*net_, *test_, 0), 0.95);
}

/** Every parameter of `a` and `b` (biases too) agrees bitwise. */
void
expectSameParams(dnn::Network &a, dnn::Network &b)
{
    auto pa = a.params();
    auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
        ASSERT_EQ(pa[p].value->numel(), pb[p].value->numel());
        for (std::size_t i = 0; i < pa[p].value->numel(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>((*pa[p].value)[i]),
                      std::bit_cast<std::uint32_t>((*pb[p].value)[i]))
                << pa[p].name << "[" << i << "]";
    }
}

TEST_F(FiTest, CorruptNetworkZeroProbIsFloatCopy)
{
    // At F = 0 corruptNetwork returns a plain float copy of the
    // source: no int16 round trip, no flips, no RNG draws.
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    const auto flips = corruptNetwork(scratch, *net_, map, 0.0,
                                      InjectionSpec::allWeights(),
                                      MemoryLayout{}, rng);
    EXPECT_EQ(flips, 0u);
    expectSameParams(scratch, *net_);
    EXPECT_EQ(rng.next(), Rng(4).next());
}

TEST_F(FiTest, SingleLayerCorruptionEqualsPerLayerZeroElsewhere)
{
    // corruptNetwork and corruptNetworkPerLayer share one staging
    // walk: targeting layer k at F equals the per-layer form with F at
    // layer k and 0 elsewhere, and all layers equals a constant vector.
    // Same weights, same flips, same RNG state afterwards.
    const auto layers = net_->weightParams().size();
    const double f = 0.05;
    for (const auto model :
         {sram::MapModel::Iid, sram::MapModel::Clustered}) {
        const sram::VulnerabilityMap map(3, 0, model,
                                         sram::ClusterParams{});
        for (int k = -1; k < static_cast<int>(layers); ++k) {
            InjectionSpec spec = InjectionSpec::singleLayer(k);
            spec.flipProb = 0.6;
            std::vector<double> by_layer(layers, k < 0 ? f : 0.0);
            if (k >= 0)
                by_layer[static_cast<std::size_t>(k)] = f;

            auto single = smallNet(2);
            auto per_layer = smallNet(3);
            Rng rng_single(4);
            Rng rng_per_layer(4);
            const auto flips_single =
                corruptNetwork(single, *net_, map, f, spec, MemoryLayout{},
                               rng_single);
            const auto flips_per_layer = corruptNetworkPerLayer(
                per_layer, *net_, map, by_layer, spec.flipProb,
                MemoryLayout{}, rng_per_layer);
            EXPECT_GT(flips_single, 0u) << "layer " << k;
            EXPECT_EQ(flips_single, flips_per_layer) << "layer " << k;
            expectSameParams(single, per_layer);
            EXPECT_EQ(rng_single.next(), rng_per_layer.next())
                << "layer " << k;
        }
    }
}

TEST_F(FiTest, FlipCountTracksFailProb)
{
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    std::uint64_t bits = 0;
    for (auto &w : net_->weightParams())
        bits += w.value->numel() * 16;
    const double f = 0.02;
    const auto flips = corruptNetwork(scratch, *net_, map, f,
                                      InjectionSpec::allWeights(),
                                      MemoryLayout{}, rng);
    const double expected = static_cast<double>(bits) * f * 0.5;
    EXPECT_NEAR(static_cast<double>(flips), expected, expected * 0.25);
}

TEST_F(FiTest, SingleLayerInjectionOnlyTouchesThatLayer)
{
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    corruptNetwork(scratch, *net_, map, 0.2,
                   InjectionSpec::singleLayer(1), MemoryLayout{}, rng);

    auto src_w = net_->weightParams();
    auto dst_w = scratch.weightParams();
    // Layer 1 corrupted...
    const auto clean1 = dnn::quantizeRoundTrip(*src_w[1].value);
    bool changed = false;
    for (std::size_t i = 0; i < dst_w[1].value->numel(); ++i)
        changed = changed || (*dst_w[1].value)[i] != clean1[i];
    EXPECT_TRUE(changed);
    // ...layers 0 and 2 exactly equal their quantized round trip.
    for (std::size_t l : {std::size_t{0}, std::size_t{2}}) {
        const auto clean = dnn::quantizeRoundTrip(*src_w[l].value);
        for (std::size_t i = 0; i < clean.numel(); ++i)
            ASSERT_EQ((*dst_w[l].value)[i], clean[i]) << "layer " << l;
    }
}

TEST_F(FiTest, LayerIndexValidated)
{
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    EXPECT_THROW(corruptNetwork(scratch, *net_, map, 0.1,
                                InjectionSpec::singleLayer(3),
                                MemoryLayout{}, rng),
                 FatalError);
}

TEST_F(FiTest, CorruptInputsPreservesShape)
{
    sram::VulnerabilityMap map(5, 0);
    Rng rng(6);
    const auto corrupted =
        corruptInputs(test_->images, map, 0.05, 0.5, MemoryLayout{}, rng);
    EXPECT_EQ(corrupted.shape(), test_->images.shape());
    bool changed = false;
    for (std::size_t i = 0; i < corrupted.numel() && !changed; ++i)
        changed = corrupted[i] != test_->images[i];
    EXPECT_TRUE(changed);
}

TEST_F(FiTest, RunnerStatisticsAreConsistent)
{
    ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const auto p = runner.run(0.02, InjectionSpec::allWeights());
    EXPECT_GE(p.maxAccuracy, p.meanAccuracy);
    EXPECT_LE(p.minAccuracy, p.meanAccuracy);
    EXPECT_GE(p.stddevAccuracy, 0.0);
    EXPECT_GT(p.meanBitFlips, 0.0);
    EXPECT_DOUBLE_EQ(p.failProb, 0.02);
}

TEST_F(FiTest, AccuracyDegradesMonotonically)
{
    // The central invariant behind Fig. 2: higher bit failure
    // probability can only hurt (up to Monte-Carlo noise).
    ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const double a0 = runner.baselineAccuracy();
    const double a1 =
        runner.run(0.001, InjectionSpec::allWeights()).meanAccuracy;
    const double a2 =
        runner.run(0.03, InjectionSpec::allWeights()).meanAccuracy;
    const double a3 =
        runner.run(0.3, InjectionSpec::allWeights()).meanAccuracy;
    EXPECT_GE(a0 + 0.02, a1);
    EXPECT_GT(a1 + 0.05, a2);
    EXPECT_GT(a2 + 0.05, a3);
    EXPECT_LT(a3, 0.6); // heavy corruption ruins the model
}

TEST_F(FiTest, InputsAreMoreTolerantThanWeights)
{
    // Fig. 2: bit flips in inputs cost far less accuracy than the
    // same rate in weights.
    ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const double f = 0.02;
    const double w =
        runner.run(f, InjectionSpec::allWeights()).meanAccuracy;
    const double in =
        runner.run(f, InjectionSpec::inputsOnly()).meanAccuracy;
    EXPECT_GT(in, w);
}

TEST_F(FiTest, VoltageSweepUsesFailureModel)
{
    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 150;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    sram::FailureRateModel model;
    const auto points = runner.sweepVoltage({0.6_V, 0.44_V}, model,
                                            InjectionSpec::allWeights());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].voltage.value(), 0.6);
    EXPECT_NEAR(points[1].failProb, model.rate(0.44_V), 1e-12);
    EXPECT_GE(points[0].meanAccuracy, points[1].meanAccuracy);
}

TEST_F(FiTest, RunnerValidatesConfig)
{
    ExperimentConfig cfg;
    cfg.numMaps = 0;
    EXPECT_THROW(FaultInjectionRunner(*net_, *test_, cfg),
                 FatalError);
    cfg.numMaps = 2;
    cfg.numThreads = -1;
    EXPECT_THROW(FaultInjectionRunner(*net_, *test_, cfg),
                 FatalError);
}

// ------------------------------------------------ parallel determinism

/** Two AccuracyPoints must agree bitwise (exact == on every field). */
void
expectBitwiseEqual(const AccuracyPoint &a, const AccuracyPoint &b)
{
    EXPECT_EQ(a.voltage.value(), b.voltage.value());
    EXPECT_EQ(a.failProb, b.failProb);
    EXPECT_EQ(a.meanAccuracy, b.meanAccuracy);
    EXPECT_EQ(a.stddevAccuracy, b.stddevAccuracy);
    EXPECT_EQ(a.minAccuracy, b.minAccuracy);
    EXPECT_EQ(a.maxAccuracy, b.maxAccuracy);
    EXPECT_EQ(a.meanBitFlips, b.meanBitFlips);
}

TEST_F(FiTest, ParallelRunIsBitwiseIdenticalToSerial)
{
    // The acceptance bar of the parallel engine: at a fixed seed,
    // numThreads = 1 and numThreads = 8 produce bitwise identical
    // Monte-Carlo statistics (maps own their seeds; reduction is in
    // map order).
    ExperimentConfig serial_cfg;
    serial_cfg.numMaps = 10;
    serial_cfg.maxTestSamples = 200;
    serial_cfg.numThreads = 1;
    ExperimentConfig parallel_cfg = serial_cfg;
    parallel_cfg.numThreads = 8;

    FaultInjectionRunner serial(*net_, *test_, serial_cfg);
    FaultInjectionRunner parallel(*net_, *test_, parallel_cfg);

    EXPECT_EQ(serial.baselineAccuracy(), parallel.baselineAccuracy());
    expectBitwiseEqual(serial.run(0.02, InjectionSpec::allWeights()),
                       parallel.run(0.02, InjectionSpec::allWeights()));
    expectBitwiseEqual(serial.run(0.02, InjectionSpec::inputsOnly()),
                       parallel.run(0.02, InjectionSpec::inputsOnly()));
    expectBitwiseEqual(serial.runPerLayer({0.01, 0.03, 0.002}),
                       parallel.runPerLayer({0.01, 0.03, 0.002}));

    sram::EccStats es, ep;
    expectBitwiseEqual(serial.runWithEcc(0.03, 0.5, &es),
                       parallel.runWithEcc(0.03, 0.5, &ep));
    EXPECT_EQ(es.words, ep.words);
    EXPECT_EQ(es.corrected, ep.corrected);
    EXPECT_EQ(es.detectedUncorrectable, ep.detectedUncorrectable);
}

TEST_F(FiTest, ParallelSweepMatchesPointwiseRuns)
{
    // The (voltage x map) grid parallelization must agree with
    // voltage-at-a-time evaluation, and with the serial sweep.
    sram::FailureRateModel model;
    const std::vector<Volt> grid{0.60_V, 0.46_V, 0.40_V};

    ExperimentConfig serial_cfg;
    serial_cfg.numMaps = 5;
    serial_cfg.maxTestSamples = 150;
    serial_cfg.numThreads = 1;
    ExperimentConfig parallel_cfg = serial_cfg;
    parallel_cfg.numThreads = 8;

    FaultInjectionRunner serial(*net_, *test_, serial_cfg);
    FaultInjectionRunner parallel(*net_, *test_, parallel_cfg);

    const auto spec = InjectionSpec::allWeights();
    const auto swept = parallel.sweepVoltage(grid, model, spec);
    const auto reference = serial.sweepVoltage(grid, model, spec);
    ASSERT_EQ(swept.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        expectBitwiseEqual(swept[i], reference[i]);
        expectBitwiseEqual(swept[i],
                           serial.runAtVoltage(grid[i], model, spec));
    }
}

TEST_F(FiTest, RunnerDoesNotMutateGoldenNetwork)
{
    // The runner clones scratch networks internally; the caller's
    // trained parameters must come back untouched.
    std::vector<float> before;
    for (auto &p : net_->params())
        for (std::size_t i = 0; i < p.value->numel(); ++i)
            before.push_back((*p.value)[i]);

    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 100;
    cfg.numThreads = 4;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    runner.run(0.1, InjectionSpec::allWeights());

    std::size_t k = 0;
    for (auto &p : net_->params())
        for (std::size_t i = 0; i < p.value->numel(); ++i)
            ASSERT_EQ((*p.value)[i], before[k++]) << p.name;
}

// ------------------------------------------------------- golden pins

/**
 * Word-wise FNV-1a over every field of a result: a digest local to the
 * tests, so the pins below do not move with the digest helpers of the
 * code they check.
 */
struct Pin
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    u(std::uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ull;
    }

    void d(double v) { u(std::bit_cast<std::uint64_t>(v)); }

    void
    point(const AccuracyPoint &p)
    {
        d(p.voltage.value());
        d(p.failProb);
        d(p.meanAccuracy);
        d(p.stddevAccuracy);
        d(p.minAccuracy);
        d(p.maxAccuracy);
        d(p.meanBitFlips);
    }

    void
    ecc(const sram::EccStats &s)
    {
        u(s.words);
        u(s.corrected);
        u(s.detectedUncorrectable);
    }

    void
    res(const resilience::ResilienceStats &s)
    {
        u(s.reads);
        u(s.cleanReads);
        u(s.correctedReads);
        u(s.retriedReads);
        u(s.retries);
        u(s.escalations);
        u(s.standingRaises);
        u(s.quarantines);
        u(s.spareReads);
        u(s.spareExhausted);
        u(s.uncorrected);
        d(s.retryEnergy.value());
        d(s.spareEnergy.value());
        d(s.retryLatency.value());
        u(s.spareTableDigest);
    }

    void
    tim(const timing::TimingStats &s)
    {
        u(s.ops);
        u(s.errors);
        u(s.replays);
        u(s.corrupted);
        u(s.stepUps);
        u(s.fallbacks);
        u(s.replayCycles);
        u(s.bubbleCycles);
        d(s.logicEnergy.value());
        d(s.replayEnergy.value());
        u(s.replayDigest);
    }
};

/** Digests of every runner kind on one ExperimentConfig. */
struct RunnerPins
{
    std::uint64_t inject = 0;
    std::uint64_t sweep = 0;
    std::uint64_t perLayer = 0;
    std::uint64_t ecc = 0;
    std::uint64_t openLoop = 0;
    std::uint64_t closedLoop = 0;
    std::uint64_t timing = 0;
    std::uint64_t combined = 0;
    std::uint64_t metrics = 0;
    std::uint64_t trace = 0;
};

class FiGolden : public FiTest
{
  protected:
    static ExperimentConfig
    config(sram::MapModel model)
    {
        ExperimentConfig cfg;
        cfg.numMaps = 3;
        cfg.maxTestSamples = 120;
        cfg.seed = 77;
        cfg.numThreads = 2;
        cfg.mapModel = model;
        return cfg;
    }

    /** Run every runner kind in turn with observability attached. */
    static RunnerPins
    runAll(const ExperimentConfig &cfg)
    {
        FaultInjectionRunner runner(*net_, *test_, cfg);
        obs::Observability o;
        runner.attachObservability(&o, 3, {{"suite", "golden"}});
        const auto ctx = core::SimContext::standard();
        sram::FailureRateModel model;
        RunnerPins pins;

        Pin inject;
        inject.point(runner.run(0.02, InjectionSpec::allWeights()));
        inject.point(runner.run(0.05, InjectionSpec::singleLayer(1)));
        inject.point(runner.run(0.03, InjectionSpec::inputsOnly()));
        InjectionSpec both;
        both.injectInputs = true;
        inject.point(runner.run(0.01, both));
        inject.point(runner.run(0.0, InjectionSpec::allWeights()));
        inject.point(runner.runAtVoltage(0.46_V, model,
                                         InjectionSpec::allWeights()));
        pins.inject = inject.h;

        Pin sweep;
        for (const auto &p : runner.sweepVoltage(
                 {0.60_V, 0.46_V, 0.42_V}, model,
                 InjectionSpec::allWeights()))
            sweep.point(p);
        for (const auto &p : runner.sweepVoltage({0.50_V, 0.44_V}, model,
                                                 both))
            sweep.point(p);
        pins.sweep = sweep.h;

        Pin per_layer;
        per_layer.point(runner.runPerLayer({0.01, 0.03, 0.002}));
        per_layer.point(runner.runPerLayer({0.0, 0.08, 0.0}, 0.7));
        pins.perLayer = per_layer.h;

        Pin ecc;
        sram::EccStats stats;
        ecc.point(runner.runWithEcc(0.03, 0.5, &stats));
        ecc.ecc(stats);
        ecc.point(runner.runWithEcc(0.002, 0.5));
        pins.ecc = ecc.h;

        auto resilient = [&](const resilience::ResiliencePolicy &policy) {
            Pin pin;
            for (const Volt v : {0.42_V, 0.38_V}) {
                const auto r = runner.runResilient(v, ctx, policy);
                pin.point(r.point);
                pin.res(r.stats);
                pin.d(r.meanAccessEnergy.value());
                pin.d(r.meanRetryLatency.value());
            }
            return pin.h;
        };
        pins.openLoop = resilient(resilience::ResiliencePolicy::openLoop(0));
        auto closed = resilience::ResiliencePolicy::closedLoop(
            2, Escalation::StepUp, 4);
        closed.quarantineThreshold = 1;
        pins.closedLoop = resilient(closed);

        TimingInjection inj;
        inj.vLogic = Volt(0.33);
        Pin timing;
        const auto t = runner.runTiming(ctx, inj);
        timing.point(t.point);
        timing.tim(t.stats);
        timing.d(t.meanLogicEnergy.value());
        timing.d(t.meanReplayLatency.value());
        timing.d(t.cycleStretch);
        timing.d(t.safeVoltage.value());
        pins.timing = timing.h;

        Pin combined;
        const auto c = runner.runCombined(0.44_V, ctx, closed, inj);
        combined.point(c.point);
        combined.res(c.sram);
        combined.tim(c.timing);
        combined.d(c.meanSramEnergy.value());
        combined.d(c.meanLogicEnergy.value());
        combined.d(c.meanRetryLatency.value());
        combined.d(c.meanReplayLatency.value());
        combined.d(c.cycleStretch);
        combined.d(c.safeVoltage.value());
        pins.combined = combined.h;

        pins.metrics = o.metrics.fingerprint();
        pins.trace = o.trace.fingerprint();
        return pins;
    }

    static void
    expectPins(const RunnerPins &got, const RunnerPins &want)
    {
        EXPECT_EQ(got.inject, want.inject) << std::hex << got.inject;
        EXPECT_EQ(got.sweep, want.sweep) << std::hex << got.sweep;
        EXPECT_EQ(got.perLayer, want.perLayer) << std::hex << got.perLayer;
        EXPECT_EQ(got.ecc, want.ecc) << std::hex << got.ecc;
        EXPECT_EQ(got.openLoop, want.openLoop) << std::hex << got.openLoop;
        EXPECT_EQ(got.closedLoop, want.closedLoop)
            << std::hex << got.closedLoop;
        EXPECT_EQ(got.timing, want.timing) << std::hex << got.timing;
        EXPECT_EQ(got.combined, want.combined) << std::hex << got.combined;
        EXPECT_EQ(got.metrics, want.metrics) << std::hex << got.metrics;
        EXPECT_EQ(got.trace, want.trace) << std::hex << got.trace;
    }

    /** weightsDigest of dst, the flip count and the RNG's next draw. */
    static std::uint64_t
    injectorPin(dnn::Network &dst, std::uint64_t flips, Rng &rng)
    {
        Pin pin;
        pin.u(recovery::weightsDigest(dst));
        pin.u(flips);
        pin.u(rng.next());
        return pin.h;
    }

    static sram::VulnerabilityMap
    map(sram::MapModel model)
    {
        return sram::VulnerabilityMap(9, 2, model, sram::ClusterParams{});
    }
};

TEST_F(FiGolden, RunnerKindsIid)
{
    expectPins(runAll(config(sram::MapModel::Iid)),
               {0x70d055faec96434aull, 0x13206e92171cbeedull,
                0xdd76369d0ec758adull, 0xff1aac27a3408d23ull,
                0x37d823c92db08a05ull, 0xc9e3b7b619b0011bull,
                0xb8606805f0913214ull, 0xabf648f0f63beff7ull,
                0x9c22b8a8d1b0dbb8ull, 0x2bf0e24fac175f55ull});
}

TEST_F(FiGolden, RunnerKindsClustered)
{
    expectPins(runAll(config(sram::MapModel::Clustered)),
               {0xba81ad81ae0558a8ull, 0x2963a36a4791b4c9ull,
                0x49f3e5c3a158d9b0ull, 0xebf423e1ce7dbb6dull,
                0x349ed4e412d4a652ull, 0xc4fb24b67e6a0678ull,
                0xb8606805f0913214ull, 0x2cba3e3b552d8994ull,
                0xd0fe9d4177a55f67ull, 0x2df2d27e913e0365ull});
}

TEST_F(FiGolden, InjectorVariants)
{
    const MemoryLayout layout;
    std::vector<std::uint64_t> got;
    for (const auto model :
         {sram::MapModel::Iid, sram::MapModel::Clustered}) {
        const auto m = map(model);
        auto dst = smallNet(2);
        {
            Rng rng(4);
            const auto flips = corruptNetwork(
                dst, *net_, m, 0.02, InjectionSpec::allWeights(), layout,
                rng);
            got.push_back(injectorPin(dst, flips, rng));
        }
        {
            Rng rng(5);
            const auto flips = corruptNetwork(
                dst, *net_, m, 0.1, InjectionSpec::singleLayer(1), layout,
                rng);
            got.push_back(injectorPin(dst, flips, rng));
        }
        {
            Rng rng(6);
            const auto flips = corruptNetworkPerLayer(
                dst, *net_, m, {0.01, 0.03, 0.002}, 0.6, layout, rng);
            got.push_back(injectorPin(dst, flips, rng));
        }
        {
            Rng rng(7);
            sram::EccStats stats;
            const auto flips = corruptNetworkEcc(dst, *net_, m, 0.03, 0.5,
                                                 layout, rng, &stats);
            Pin pin;
            pin.u(injectorPin(dst, flips, rng));
            pin.ecc(stats);
            got.push_back(pin.h);
        }
        {
            Rng rng(8);
            const dnn::Tensor x =
                corruptInputs(test_->images, m, 0.03, 0.5, layout, rng);
            Pin pin;
            for (std::size_t i = 0; i < x.numel(); ++i)
                pin.u(std::bit_cast<std::uint32_t>(x[i]));
            pin.u(rng.next());
            got.push_back(pin.h);
        }
        for (const bool indexed : {false, true}) {
            const auto ctx = core::SimContext::standard();
            const sram::FailureRateModel failure(ctx.failure);
            sram::BankedMemory mem("weight_mem", 1, ctx.design, ctx.tech,
                                   failure);
            resilience::ResilientMemory rmem(
                mem, ctx, resilience::ResiliencePolicy::closedLoop());
            rmem.reseed(Rng(10));
            const auto index =
                resilience::ResilientMemory::cleanWordIndex(m, mem);
            const auto flips =
                indexed ? corruptNetworkResilient(dst, *net_, rmem, 0.40_V,
                                                  m, index)
                        : corruptNetworkResilient(dst, *net_, rmem, 0.40_V,
                                                  m);
            Pin pin;
            pin.u(recovery::weightsDigest(dst));
            pin.u(flips);
            pin.res(rmem.snapshot());
            pin.d(rmem.totalAccessEnergy().value());
            got.push_back(pin.h);
        }
    }
    // Per map model: corruptNetwork (all layers, one layer),
    // corruptNetworkPerLayer, corruptNetworkEcc, corruptInputs, and
    // corruptNetworkResilient plain and indexed (equal by contract).
    const std::vector<std::uint64_t> want{
        0x2ded6e3586043ae3ull, 0xff9f20e8edec62aaull, 0xe1887a4c8ccc1168ull,
        0x9d0a0fb36bee0a4cull, 0x95de2570ec36b670ull, 0xbd8c79c1378ef413ull,
        0xbd8c79c1378ef413ull, 0x6721b86a8f7e62f0ull, 0xba9a1c5abcd55c5full,
        0x8e96ef4aff5ae907ull, 0xced1f0afd6a0fc4eull, 0x3b87f4d42739851bull,
        0xb6d58ed255fc0cc7ull, 0xb6d58ed255fc0cc7ull};
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << i << ": " << std::hex << got[i];
}

// ------------------------------------------------------- accuracy curve

TEST(AccuracyCurve, InterpolatesLogLinearly)
{
    AccuracyCurve curve({1e-4, 1e-2}, {0.9, 0.5}, 0.95);
    EXPECT_DOUBLE_EQ(curve.at(1e-4), 0.9);
    EXPECT_DOUBLE_EQ(curve.at(1e-2), 0.5);
    EXPECT_NEAR(curve.at(1e-3), 0.7, 1e-9); // halfway in log space
    EXPECT_DOUBLE_EQ(curve.at(0.5), 0.5);   // clamps above
    EXPECT_DOUBLE_EQ(curve.at(0.0), 0.95);  // fault-free below
}

TEST(AccuracyCurve, ValidatesSamples)
{
    EXPECT_THROW(AccuracyCurve({1e-3}, {0.9}, 1.0), FatalError);
    EXPECT_THROW(AccuracyCurve({1e-3, 1e-4}, {0.9, 0.8}, 1.0),
                 FatalError);
    EXPECT_THROW(AccuracyCurve({0.0, 1e-3}, {0.9, 0.8}, 1.0), FatalError);
    EXPECT_THROW(AccuracyCurve({1e-3, 1e-2}, {0.9}, 1.0), FatalError);
}

TEST_F(FiTest, SampledCurveIsUsableForIsoAccuracy)
{
    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 150;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const auto curve = AccuracyCurve::sample(
        runner, InjectionSpec::allWeights(), 1e-4, 0.2, 5);
    EXPECT_GT(curve.faultFree(), 0.9);
    // Query between samples without re-running Monte Carlo.
    EXPECT_GE(curve.at(1e-4), curve.at(0.2) - 1e-9);
}

} // namespace
} // namespace vboost::fi
