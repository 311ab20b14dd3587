/**
 * @file
 * Tests for logging, units, stats, tables and the fixed-point codec.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/fixed_point.hpp"
#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "cluster/cluster.hpp"
#include "cluster/hash_ring.hpp"
#include "dnn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/recovery.hpp"
#include "serve/server.hpp"
#include "timing/speculative_datapath.hpp"

namespace vboost {
namespace {

// ------------------------------------------------------------- logging

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 1.5), FatalError);
}

TEST(Logging, MessagesAreConcatenated)
{
    try {
        fatal("x=", 3, " y=", 4.5);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "x=3 y=4.5");
    }
}

TEST(Logging, QuietFlagRoundTrips)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

TEST(TokenBucket, GrantsFullBurstThenBlocks)
{
    TokenBucket bucket(1.0, 3.0);
    EXPECT_TRUE(bucket.allow(10.0));
    EXPECT_TRUE(bucket.allow(10.0));
    EXPECT_TRUE(bucket.allow(10.0));
    EXPECT_FALSE(bucket.allow(10.0)); // burst spent, no time elapsed
}

TEST(TokenBucket, RefillsAtTheConfiguredRate)
{
    TokenBucket bucket(2.0, 2.0); // 2 tokens/sec, burst 2
    EXPECT_TRUE(bucket.allow(0.0));
    EXPECT_TRUE(bucket.allow(0.0));
    EXPECT_FALSE(bucket.allow(0.0));
    EXPECT_FALSE(bucket.allow(0.4)); // 0.8 tokens: still short
    EXPECT_TRUE(bucket.allow(0.5));  // 1.0 token accrued
    EXPECT_FALSE(bucket.allow(0.5));
}

TEST(TokenBucket, RefillCapsAtBurst)
{
    TokenBucket bucket(10.0, 2.0);
    EXPECT_TRUE(bucket.allow(0.0));
    EXPECT_TRUE(bucket.allow(0.0));
    // A long idle stretch refills to the cap, not beyond it.
    EXPECT_TRUE(bucket.allow(100.0));
    EXPECT_TRUE(bucket.allow(100.0));
    EXPECT_FALSE(bucket.allow(100.0));
}

TEST(TokenBucket, TimeNeverMovesBackwards)
{
    TokenBucket bucket(1.0, 1.0);
    EXPECT_TRUE(bucket.allow(50.0));
    // An earlier timestamp must not manufacture tokens.
    EXPECT_FALSE(bucket.allow(0.0));
    EXPECT_TRUE(bucket.allow(51.0));
}

TEST(TokenBucket, RejectsBadConfig)
{
    EXPECT_THROW(TokenBucket(0.0, 1.0), FatalError);
    EXPECT_THROW(TokenBucket(-1.0, 1.0), FatalError);
    EXPECT_THROW(TokenBucket(1.0, 0.5), FatalError);
}

TEST(Logging, WarnRateLimitedSuppressesFloods)
{
    // Tiny budget: the first message passes, the flood is dropped.
    setWarnRateLimit(0.001, 1.0);
    setQuiet(false);
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 50; ++i)
        warnRateLimited("flood message ", i);
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("flood message 0"), std::string::npos);
    EXPECT_EQ(out.find("flood message 1"), std::string::npos);
    // Restore the default budget for other tests.
    setWarnRateLimit(5.0, 10.0);
}

// --------------------------------------------------------------- units

TEST(Units, LiteralsProduceBaseSiValues)
{
    EXPECT_DOUBLE_EQ((0.4_V).value(), 0.4);
    EXPECT_DOUBLE_EQ((10.0_pF).value(), 10e-12);
    EXPECT_DOUBLE_EQ((50.0_MHz).value(), 50e6);
    EXPECT_DOUBLE_EQ((1.5_pJ).value(), 1.5e-12);
    EXPECT_DOUBLE_EQ((2.0_uW).value(), 2e-6);
    EXPECT_DOUBLE_EQ((1.0_mm2).value(), 1e6);
}

TEST(Units, ArithmeticAndComparison)
{
    const Volt a = 0.3_V, b = 0.2_V;
    EXPECT_DOUBLE_EQ((a + b).value(), 0.5);
    EXPECT_DOUBLE_EQ((a - b).value(), 0.1);
    EXPECT_DOUBLE_EQ((a * 2.0).value(), 0.6);
    EXPECT_DOUBLE_EQ((2.0 * a).value(), 0.6);
    EXPECT_DOUBLE_EQ(a / b, 1.5);
    EXPECT_LT(b, a);
    EXPECT_GT(a, b);
}

TEST(Units, SwitchingEnergyIsCV2)
{
    const Joule e = switchingEnergy(2.0_pF, 0.5_V);
    EXPECT_DOUBLE_EQ(e.value(), 2e-12 * 0.25);
}

TEST(Units, PowerEnergyPeriodRelations)
{
    EXPECT_DOUBLE_EQ(period(50.0_MHz).value(), 2e-8);
    EXPECT_DOUBLE_EQ(power(1.0_pJ, period(50.0_MHz)).value(), 5e-5);
    EXPECT_DOUBLE_EQ(energyFromPower(2.0_uW, 1.0_ns).value(), 2e-15);
}

// --------------------------------------------------------------- stats

TEST(RunningStats, MeanVarianceMinMax)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAccessorsPanic)
{
    RunningStats s;
    EXPECT_THROW(s.mean(), PanicError);
    EXPECT_THROW(s.min(), PanicError);
    EXPECT_THROW(s.max(), PanicError);
}

TEST(RunningStats, SingleSampleHasZeroVariance)
{
    RunningStats s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i * 0.7) * 3 + i * 0.01;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesOrderStatistics)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
    EXPECT_DOUBLE_EQ(percentile(v, 12.5), 1.5);
}

TEST(Percentile, RejectsBadInput)
{
    EXPECT_THROW(percentile({}, 50), FatalError);
    EXPECT_THROW(percentile({1.0}, 101), FatalError);
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(-3.0); // clamps into bin 0
    h.add(42.0); // clamps into last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_DOUBLE_EQ(h.binLow(3), 3.0);
}

TEST(Histogram, RejectsDegenerateRange)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
}

// --------------------------------------------------------------- table

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"a", "long_header"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("long_header"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, RejectsRaggedRows)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, CsvQuotesSpecialCells)
{
    Table t({"x"});
    t.addRow({"hello, \"world\""});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "x\n\"hello, \"\"world\"\"\"\n");
}

TEST(Table, NumberFormatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
    EXPECT_EQ(Table::sci(0.00123, 2), "1.23e-03");
}

// --------------------------------------------------------- fixed point

TEST(FixedPoint, EncodeDecodeRoundTrip)
{
    FixedPointCodec codec(13); // Q2.13
    for (float x : {0.0f, 0.5f, -0.5f, 1.25f, -3.99f, 3.99f}) {
        EXPECT_NEAR(codec.decode(codec.encode(x)), x, codec.resolution());
    }
}

TEST(FixedPoint, SaturatesAtRangeEdges)
{
    FixedPointCodec codec(13);
    EXPECT_EQ(codec.encode(100.0f), 32767);
    EXPECT_EQ(codec.encode(-100.0f), -32768);
    EXPECT_NEAR(codec.maxValue(), 4.0f, 0.001f);
    EXPECT_NEAR(codec.minValue(), -4.0f, 0.001f);
}

TEST(FixedPoint, RoundsTiesToEvenAndEncodesNaNAsZero)
{
    FixedPointCodec codec(0);
    EXPECT_EQ(codec.encode(2.5f), 2);
    EXPECT_EQ(codec.encode(3.5f), 4);
    EXPECT_EQ(codec.encode(-2.5f), -2);
    EXPECT_EQ(codec.encode(-0.5f), 0);
    EXPECT_EQ(codec.encode(32767.5f), 32767);
    EXPECT_EQ(codec.encode(-32768.5f), -32768);
    EXPECT_EQ(codec.encode(std::numeric_limits<float>::infinity()), 32767);
    EXPECT_EQ(codec.encode(-std::numeric_limits<float>::infinity()), -32768);
    EXPECT_EQ(codec.encode(std::numeric_limits<float>::quiet_NaN()), 0);
    EXPECT_EQ(codec.encode(-std::numeric_limits<float>::quiet_NaN()), 0);
}

TEST(FixedPoint, ResolutionMatchesFracBits)
{
    EXPECT_FLOAT_EQ(FixedPointCodec(15).resolution(), 1.0f / 32768.0f);
    EXPECT_FLOAT_EQ(FixedPointCodec(0).resolution(), 1.0f);
}

TEST(FixedPoint, RejectsBadFracBits)
{
    EXPECT_THROW(FixedPointCodec(-1), FatalError);
    EXPECT_THROW(FixedPointCodec(16), FatalError);
}

TEST(FixedPoint, FlipBitTogglesExactlyOneBit)
{
    const std::int16_t raw = 0x1234;
    for (int b = 0; b < 16; ++b) {
        const std::int16_t flipped = FixedPointCodec::flipBit(raw, b);
        EXPECT_EQ(static_cast<std::uint16_t>(raw ^ flipped), 1u << b);
        // Double flip restores.
        EXPECT_EQ(FixedPointCodec::flipBit(flipped, b), raw);
    }
    EXPECT_THROW(FixedPointCodec::flipBit(raw, 16), PanicError);
}

TEST(FixedPoint, SignBitFlipIsLargePerturbation)
{
    FixedPointCodec codec(15);
    const std::int16_t half = codec.encode(0.5f);
    const float flipped = codec.decode(FixedPointCodec::flipBit(half, 15));
    EXPECT_NEAR(flipped, -0.5f, 0.001f);
}

// ------------------------------------------------------ FNV-1a digests

/** A tenant record with every field distinct and non-zero. */
serve::TenantStats
fixedTenant(std::uint64_t k)
{
    serve::TenantStats t;
    t.requests = 100 + k;
    t.admitted = 90 + k;
    t.shedQueueFull = 3 + k;
    t.shedTenantQuota = 7 + k;
    t.batches = 12 + k;
    t.inferences = 88 + k;
    t.correct = 80 + k;
    t.retries = 5 + k;
    t.escalations = 2 + k;
    t.quarantines = 1 + k;
    t.uncorrected = 4 + k;
    t.energyPj = 1234.5 + static_cast<double>(k);
    t.queueWaitTicksSum = 4567 + k;
    t.latencyTicksSum = 8901 + k;
    t.maxLatencyTicks = 321 + k;
    t.finalVddStep = -2 + static_cast<int>(k);
    return t;
}

TEST(FnvDigests, FingerprintsPinnedOnFixedInputs)
{
    // Every FNV-1a digest of the code base on fixed inputs: the byte
    // order each one folds in (size before or after a string, four- or
    // eight-byte words, the two offset bases) is part of the committed
    // fingerprints, so none of them may move.
    serve::ServerStats server;
    server.total = fixedTenant(0);
    server.perTenant["alpha"] = fixedTenant(1);
    server.perTenant["beta-tenant"] = fixedTenant(2);
    server.meanBatchSize = 7.25;
    server.p50LatencyTicks = 410.0;
    server.p95LatencyTicks = 977.5;
    server.accuracy = 0.9375;
    EXPECT_EQ(server.fingerprint(), 0x5b2324fa9009d822ull)
        << std::hex << server.fingerprint();

    cluster::ClusterStats cl;
    cl.requests = 640;
    cl.routedPrimary = 600;
    cl.routedSpill = 25;
    cl.routedFailover = 15;
    cl.shedCluster = 9;
    cl.transitions = 3;
    cl.total = fixedTenant(3);
    for (int n = 0; n < 2; ++n) {
        cluster::NodeStats node;
        node.primaryRequests = 300u + static_cast<unsigned>(n);
        node.spillRequests = 10;
        node.failoverRequests = 5u * static_cast<unsigned>(n);
        node.epochsServed = 9;
        node.serve = fixedTenant(4 + static_cast<std::uint64_t>(n));
        node.lastCompletionTick = 5000u + static_cast<unsigned>(n);
        node.finalState =
            n == 0 ? cluster::NodeState::Active
                   : cluster::NodeState::Draining;
        node.finalEwma = 0.125 * (n + 1);
        cl.perNode.push_back(node);
    }
    cl.p50LatencyTicks = 300.0;
    cl.p95LatencyTicks = 1200.5;
    cl.p95LatencyBySlo = {800.0, 1100.0, 1500.0};
    cl.accuracyBySlo = {0.97, 0.93, 0.88};
    cl.accuracy = 0.925;
    cl.makespanTicks = 6000;
    EXPECT_EQ(cl.fingerprint(), 0x2f10f6e4b31c8654ull) << std::hex << cl.fingerprint();

    obs::MetricsRegistry reg;
    reg.counter("fi.trials", {{"kind", "inject"}}).add(7);
    reg.sum("energy.pj", {{"bank", "3"}}).add(12.5);
    reg.gauge("level").set(2.0);
    auto hist = reg.histogram("acc", obs::linearBounds(0.0, 1.0, 5));
    hist.observe(0.3);
    hist.observe(0.95);
    reg.gauge("wallclock").set(99.0);
    reg.excludeFromFingerprint("wallclock");
    EXPECT_EQ(reg.fingerprint(), 0xbf8abf1ce6f0757dull) << std::hex << reg.fingerprint();

    obs::Tracer tr;
    tr.setProcessName(1, "sweep");
    tr.setThreadName(1, 2, "slot 2");
    tr.complete(1, 2, "batch", 5, 10, {{"x", 1.5}});
    tr.instant(1, 2, "marker", 8, {{"y", -0.25}}, {{"why", "ok"}});
    tr.begin(1, 0, "open", 20);
    EXPECT_EQ(tr.fingerprint(), 0xf06bace7e7d7a739ull) << std::hex << tr.fingerprint();

    cluster::HashRing ring(cluster::HashRingConfig{8});
    for (const char *node : {"node-0", "node-1", "node-2"})
        ring.addNode(node);
    EXPECT_EQ(ring.fingerprint(), 0xcaa3c6f41b927492ull)
        << std::hex << ring.fingerprint();
    EXPECT_EQ(cluster::HashRing::hashKey("tenant-0007"), 0x60fe5e16abc567daull)
        << std::hex << cluster::HashRing::hashKey("tenant-0007");

    timing::TimingStats a, b;
    b.replayDigest = 0x0123456789abcdefull;
    a.merge(b);
    EXPECT_EQ(a.replayDigest, 0x37eb3f3347761c55ull) << std::hex << a.replayDigest;

    std::uint64_t h = recovery::kFnvOffset;
    fnvWord(h, 0xfeedfacecafebeefull);
    h = recovery::fnvMixDouble(h, -3.75);
    EXPECT_EQ(h, 0x1542d08473b4bccbull) << std::hex << h;

    Rng rng(5);
    dnn::Network net;
    net.addLayer<dnn::Dense>(6, 5, rng, "fc1");
    net.addLayer<dnn::Relu>("r1");
    net.addLayer<dnn::Dense>(5, 3, rng, "fc2");
    EXPECT_EQ(recovery::weightsDigest(net), 0xa3adf58760da05b8ull)
        << std::hex << recovery::weightsDigest(net);
}

} // namespace
} // namespace vboost
