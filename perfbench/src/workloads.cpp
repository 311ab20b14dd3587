#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "accel/dante.hpp"
#include "accel/dataflow.hpp"
#include "accel/perf_model.hpp"
#include "cluster/cluster.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/context.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/dataset.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"
#include "fi/accuracy_curve.hpp"
#include "fi/experiment.hpp"
#include "fi/injector.hpp"
#include "models.hpp"
#include "recovery/map_aware_trainer.hpp"
#include "recovery/recovery.hpp"
#include "resilience/resilient_memory.hpp"
#include "serve/planner.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "spans.hpp"
#include "sram/ecc.hpp"
#include "sram/failure_model.hpp"
#include "sram/fault_map.hpp"

namespace vbb {

using namespace vboost;

namespace {

// ---------------------------------------------------------------------
// Input sizes. One timed unit takes about 0.2 s (sweep) to 6 s (serve)
// on a 4-core x86 host, so a 25 s run repeats it several times.

/** Fewest set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 5;
/** Short set-ups repeat until this much time has passed. */
constexpr std::int64_t kSetupMinNs = 1'000'000'000;
/** Fewest timed units per run, whatever --seconds says. */
constexpr int kMinUnits = 3;
/** Untraced/traced replay pairs behind trace.overhead_frac. */
constexpr int kOverheadRounds = 3;

/** serve: requests per replayed trace (two routing epochs; the
 *  node loss lands at the second). */
constexpr std::size_t kServeRequests = 128;
constexpr int kServeEpochRequests = 64;
constexpr int kServeShards = 4;
/** Labeled pool the trace's requests draw their inputs from. */
constexpr int kServePool = 1000;

/** sweep: fault maps x curve points x test samples per unit. */
constexpr int kSweepMaps = 4;
constexpr int kSweepPoints = 3;
constexpr int kSweepSamples = 64;

/** train: synthetic CIFAR samples per unit (one epoch). */
constexpr int kTrainSamples = 128;

/** recover: MATIC training samples and chip-evaluation size. */
constexpr int kRecoverSamples = 512;
constexpr int kRecoverEvalSamples = 128;
constexpr int kRecoverReads = 4;
/** Deployment bit failure probability the chip is hardened for. */
constexpr double kRecoverFailProb = 5e-3;

/** Dataset seeds are offset from the workload seed so that no seed
 *  reproduces the prepared models' own training sets. */
std::uint64_t
dataSeed(std::uint64_t seed)
{
    return 0x5eed0000ull + seed;
}

// ---------------------------------------------------------------------
// Output helpers.

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Exact text of a double: its IEEE-754 bit pattern. */
std::string
bits(double d)
{
    return hex(std::bit_cast<std::uint64_t>(d));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

using Checks = std::vector<std::pair<std::string, std::string>>;

struct Metric
{
    double value = 0.0;
    const char *unit = "";
};
using Metrics = std::map<std::string, Metric>;

void
printLine(const std::string &line)
{
    std::cout << line << '\n' << std::flush;
}

std::string
checksJson(const Checks &checks)
{
    std::string out = "{";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        if (i > 0)
            out += ',';
        out += jsonString(checks[i].first);
        out += ':';
        out += jsonString(checks[i].second);
    }
    return out + "}";
}

void
printMetrics(const Metrics &m)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"kind\":\"metrics\",\"metrics\":{";
    bool first = true;
    for (const auto &[name, metric] : m) {
        // A ratio over an empty slice has no value; JSON has no NaN.
        os << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
           << (std::isfinite(metric.value) ? metric.value : 0.0)
           << ",\"unit\":" << jsonString(metric.unit) << "}";
        first = false;
    }
    os << "}}";
    printLine(os.str());
}

/** One replayed-versus-real comparison of the traced run. */
struct ReplayCheck
{
    std::string name;
    bool ok = false;
};

template <typename T>
void
expectEqual(std::vector<ReplayCheck> &out, const std::string &name,
            const T &replayed, const T &real)
{
    out.push_back({name, replayed == real});
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median ns per call of `f` (which performs `calls` calls) over
 *  repeats totalling at least ~40 ms. */
template <typename F>
double
nsPerCall(F &&f, std::size_t calls)
{
    std::vector<double> per_call;
    const std::int64_t t_end = nowNs() + 40'000'000;
    while (per_call.size() < 5 || nowNs() < t_end) {
        const std::int64_t t0 = nowNs();
        f();
        per_call.push_back(static_cast<double>(nowNs() - t0) /
                           static_cast<double>(calls));
    }
    return median(per_call);
}

/**
 * Moves the calling thread to the process's allowed CPUs in turn, one
 * per timed unit, and back to all of them when it goes out of scope. On
 * a shared host each core slows down by up to ~1.6x while other tenants
 * load it, for seconds to minutes at a time and independently of the
 * other cores. A serial workload left on the core the scheduler first
 * chose would measure that one core's neighbours; a run that visits
 * every core measures their average. Moving every 50 ms instead
 * measured both slower and less steady.
 */
class CoreRotation
{
  public:
    CoreRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
        }
    }
    ~CoreRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    CoreRotation(const CoreRotation &) = delete;
    CoreRotation &operator=(const CoreRotation &) = delete;

    /** Pin the calling thread to the next allowed CPU. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_{};
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Keeps microbenchmark results observable to the optimizer. */
volatile std::uint64_t g_sink = 0;

/** Weight bits staged by one pass over a network's weight tensors. */
std::uint64_t
weightBits(dnn::Network &net)
{
    std::uint64_t n = 0;
    for (const auto &p : net.weightParams())
        n += p.value->numel() * 16ull;
    return n;
}

/** Median wall / CPU seconds of the timed units. */
struct UnitTimes
{
    double wallS = 0.0;
    double cpuS = 0.0;
};

/** The items one unit completed and its exact simulated outputs. */
struct UnitResult
{
    std::uint64_t items = 0;
    Checks checks;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Load models and build every input of the timed phase. */
    virtual void setup(const RunConfig &cfg) = 0;
    /** One timed work unit (spans only around top-level calls). */
    virtual UnitResult unit(SpanRecorder &rec) = 0;
    /**
     * Replay one representative slice through the public layer calls
     * under a root span (returned), appending replayed-vs-real checks.
     * Runs after at least one unit.
     */
    virtual int replay(SpanRecorder &rec,
                       std::vector<ReplayCheck> &checks) = 0;
    /** Per-layer metrics from a traced replay rooted at `root`. */
    virtual void layerMetrics(const SpanRecorder &rec, int root,
                              const UnitTimes &units, Metrics &m) = 0;
    /** Worker threads the workload's parallel layers use. */
    virtual int threads() const = 0;
};

/** Totals of the spans under (and including) `root`. */
std::map<std::string, LayerTime>
subtree(const SpanRecorder &rec, int root)
{
    std::size_t to = static_cast<std::size_t>(root) + 1;
    const auto &spans = rec.spans();
    // Spans are stored in begin order, so a subtree is contiguous.
    while (to < spans.size() && spans[to].startNs < spans[root].endNs)
        ++to;
    return rec.totals(static_cast<std::size_t>(root), to);
}

double
total(const std::map<std::string, LayerTime> &t, const char *name)
{
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.totalS;
}

double
self(const std::map<std::string, LayerTime> &t, const char *name)
{
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.selfS;
}

std::uint64_t
count(const std::map<std::string, LayerTime> &t, const char *name)
{
    auto it = t.find(name);
    return it == t.end() ? 0 : it->second.count;
}

// ---------------------------------------------------------------------
// serve: a Zipf-shared gold/silver/bronze tenant trace through a
// 4-shard ServingCluster with one node loss, closed-loop resilient
// weight staging, FC-DNN.

class ServeWorkload final : public Workload
{
  public:
    void
    setup(const RunConfig &cfg) override
    {
        threads_ = cfg.threads;
        ctx_ = core::SimContext::standard();
        net_ = loadModel(cfg.modelDir, kMnistFc,
                         cfg.modelDigests.at(kMnistFc));
        pool_ = dnn::makeSyntheticMnist(kServePool, 2);

        // The planner's accuracy curve, as bench_serve_cluster builds
        // it in smoke mode.
        fi::ExperimentConfig fi_cfg;
        fi_cfg.numMaps = 4;
        fi_cfg.maxTestSamples = 256;
        fi_cfg.numThreads = threads_;
        fi::FaultInjectionRunner runner(net_, pool_, fi_cfg);
        const fi::AccuracyCurve curve = fi::AccuracyCurve::sample(
            runner, fi::InjectionSpec::allWeights(), 1e-5, 0.3, 5);
        const sram::FailureRateModel frm(ctx_.failure);
        const auto accuracy_at = [curve, frm](Volt vddv) {
            return curve.at(frm.rate(vddv));
        };

        perInference_ = accel::totalActivity(
            accel::DanaFcModel().networkActivity(
                dnn::mnistFcLayerSizes()));
        serve::InferenceFootprint footprint;
        footprint.weightAccesses = perInference_.weightAccesses;
        footprint.inputAccesses = perInference_.inputAccesses;
        footprint.psumAccesses = perInference_.psumAccesses;
        footprint.computeOps = perInference_.macs;
        const serve::PlannerConfig planner_cfg;
        planner_ = std::make_unique<serve::OperatingPointPlanner>(
            ctx_, 16, accuracy_at, curve.faultFree(), footprint,
            planner_cfg);

        // bench_serve_cluster's load shape: a heavily overloaded open
        // loop (40k requests/s offered) over 24 Zipf-shared tenants.
        // The arrivals and tenants are fixed, so every seed forms the
        // same batches and stages the same weights; the seed draws the
        // input each request carries.
        serve::TraceConfig trace_cfg;
        trace_cfg.requestsPerTick = 40000.0 / 1e6;
        trace_cfg.numRequests = kServeRequests;
        trace_cfg.tenants = serve::scaledTenantMix(24).tenants;
        trace_cfg.samplePoolSize = pool_.size();
        trace_ = serve::generatePoissonTrace(trace_cfg);
        Rng inputs(dataSeed(cfg.seed));
        for (serve::InferenceRequest &req : trace_)
            req.sample = static_cast<std::size_t>(
                inputs.uniformInt(pool_.size()));

        cluster_.shards = kServeShards;
        cluster_.replicas = 3;
        cluster_.epochRequests = kServeEpochRequests;
        cluster_.shardQueueCapacity =
            static_cast<std::size_t>(kServeEpochRequests / kServeShards);
        cluster_.node.numThreads = threads_;
        cluster_.node.queueCapacity =
            static_cast<std::size_t>(kServeEpochRequests);
        cluster_.node.batcher.maxWaitTicks = 4000;
        cluster_.failover.downEpochs = 1;
        cluster_.lossEvents = {{1, 0}};
    }

    UnitResult
    unit(SpanRecorder &rec) override
    {
        cluster::ServingCluster cl(ctx_, net_, pool_, perInference_,
                                   *planner_, cluster_);
        {
            ScopedSpan span(rec, "cluster.run");
            last_ = cl.run(trace_);
        }
        const cluster::ClusterStats &s = last_.stats;
        const double energy =
            s.total.inferences
                ? s.total.energyPj /
                      static_cast<double>(s.total.inferences)
                : 0.0;
        UnitResult r;
        r.items = trace_.size();
        r.checks = {{"fingerprint", hex(s.fingerprint())},
                    {"admitted", std::to_string(s.total.admitted)},
                    {"energy_pj_per_inference", bits(energy)},
                    {"p95_latency_ticks", bits(s.p95LatencyTicks)},
                    {"makespan_ticks", std::to_string(s.makespanTicks)},
                    {"accuracy", bits(s.accuracy)}};
        return r;
    }

    int
    replay(SpanRecorder &rec, std::vector<ReplayCheck> &checks) override
    {
        if (last_.routes.size() != trace_.size())
            fatal("serve replay needs a completed cluster run");
        ScopedSpan root(rec, "serve.replay");
        // Node 0 on its own, fed the requests the cluster routed to it:
        // its BatchRecords are the real outputs the slice must match.
        const serve::ServerConfig &ncfg = cluster_.node;
        std::vector<serve::InferenceRequest> sub;
        for (std::size_t i = 0; i < trace_.size(); ++i) {
            if (last_.routes[i].node == 0)
                sub.push_back(trace_[i]);
        }
        serve::InferenceServer server(ctx_, net_, pool_, perInference_,
                                      *planner_, ncfg);
        serve::ServeResult res;
        {
            ScopedSpan span(rec, "serve.node_run");
            res = server.run(sub);
        }
        // One batch per SLO class (the first of each): staging cost
        // depends on the class's boost level, hardly on batch size.
        slices_.clear();
        std::array<bool, serve::kNumSloClasses> seen{};
        for (const serve::BatchRecord &b : res.batches) {
            const auto cls = static_cast<std::size_t>(b.slo);
            if (seen[cls])
                continue;
            seen[cls] = true;
            replayBatch(rec, ncfg, sub, res, b, checks);
        }
        return root.id();
    }

    void
    layerMetrics(const SpanRecorder &rec, int root,
                 const UnitTimes &units, Metrics &m) override
    {
        const auto t = subtree(rec, root);
        const double n_replayed = static_cast<double>(slices_.size());
        const cluster::ClusterStats &s = last_.stats;
        const double batches = static_cast<double>(s.total.batches);
        // Layer times per replayed batch, scaled to one cluster.run.
        const double scale = n_replayed > 0 ? batches / n_replayed : 0.0;
        const double stage_self = self(t, "fi.stage_weights") * scale;
        const double read = total(t, "resilience.read") * scale;
        const double write = total(t, "resilience.write") * scale;
        const double inputs = total(t, "fi.corrupt_inputs") * scale;
        const double predict = total(t, "dnn.predict") * scale;
        const double evaluate = total(t, "accel.evaluate") * scale;
        m["cluster.run_s"] = {units.wallS, "s"};
        m["serve.batches"] = {batches, "count"};
        m["serve.mean_batch"] = {
            batches > 0 ? static_cast<double>(s.total.inferences) / batches
                        : 0.0,
            "count"};
        m["serve.unattributed_s"] = {units.cpuS - stage_self - read -
                                         write - inputs - predict -
                                         evaluate,
                                     "s"};
        m["fi.stage_weights_s"] = {stage_self, "s"};
        m["resilience.read_s"] = {read, "s"};
        m["resilience.write_s"] = {write, "s"};
        m["fi.corrupt_inputs_s"] = {inputs, "s"};
        m["dnn.predict_s"] = {predict, "s"};
        m["accel.evaluate_s"] = {evaluate, "s"};

        std::uint64_t reads = 0, retries = 0, clean = 0;
        const sram::FailureRateModel frm(ctx_.failure);
        for (const Slice &sl : slices_) {
            reads += sl.stats.reads;
            retries += sl.stats.retries;
            clean += sl.stats.cleanReads;
            const auto ts = rec.totals(sl.spanFrom, sl.spanTo);
            const std::string cls = serve::toString(sl.slo);
            const std::string lower = lowerCase(cls);
            m["resilience.ns_per_read." + lower] = {
                sl.stats.reads ? total(ts, "resilience.read") * 1e9 /
                                     static_cast<double>(sl.stats.reads)
                               : 0.0,
                "ns"};
            m["sram.faulty_word_frac." + lower] = {
                faultyWordFrac(frm.rate(sl.vddvWeights)), "frac"};
        }
        m["resilience.reads"] = {
            n_replayed > 0 ? static_cast<double>(reads) / n_replayed
                           : 0.0,
            "count"};
        m["resilience.retry_frac"] = {
            reads ? static_cast<double>(retries) /
                        static_cast<double>(reads)
                  : 0.0,
            "frac"};
        m["resilience.clean_read_frac"] = {
            reads ? static_cast<double>(clean) /
                        static_cast<double>(reads)
                  : 0.0,
            "frac"};

        std::vector<std::uint64_t> words(1 << 16);
        Rng rng(3);
        for (auto &w : words)
            w = rng.next();
        m["sram.secded_ns"] = {
            nsPerCall(
                [&] {
                    std::uint64_t acc = 0;
                    for (std::uint64_t w : words) {
                        const std::uint8_t c =
                            sram::SecdedCodec::encode(w);
                        acc += sram::SecdedCodec::decode(w ^ 1u, c).data;
                    }
                    g_sink = g_sink + acc;
                },
                words.size()),
            "ns"};
    }

    int threads() const override { return threads_; }

  private:
    /** One replayed batch: its span range and pipeline counters. */
    struct Slice
    {
        serve::SloClass slo = serve::SloClass::Silver;
        Volt vddvWeights{0.0};
        std::size_t spanFrom = 0;
        std::size_t spanTo = 0;
        resilience::ResilienceStats stats;
    };

    static std::string
    lowerCase(std::string s)
    {
        for (char &c : s)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        return s;
    }

    /** Share of the staged weight words with a faulty data cell at
     *  `fail` on node 0's device map (check-bit cells not counted). */
    double
    faultyWordFrac(double fail)
    {
        accel::DanteChip chip(cluster_.node.chip, ctx_.tech, ctx_.failure);
        const sram::BankedMemory &mem = chip.weightMemory();
        const sram::VulnerabilityMap map(cluster_.node.seed, 0);
        const std::uint32_t capacity = mem.words();
        std::uint64_t groups = 0;
        for (const auto &p : net_.weightParams())
            groups += (p.value->numel() + 3) / 4;
        std::vector<char> faulty(capacity, 0);
        for (std::uint32_t a = 0; a < std::min<std::uint64_t>(groups, capacity);
             ++a) {
            const std::uint64_t base = mem.cellIndex(a);
            for (std::uint64_t b = 0; b < 64 && !faulty[a]; ++b)
                faulty[a] = map.isFaulty(base + b, fail) ? 1 : 0;
        }
        std::uint64_t hit = 0;
        for (std::uint64_t g = 0; g < groups; ++g)
            hit += faulty[g % capacity] ? 1 : 0;
        return groups ? static_cast<double>(hit) /
                            static_cast<double>(groups)
                      : 0.0;
    }

    void
    replayBatch(SpanRecorder &rec, const serve::ServerConfig &ncfg,
                const std::vector<serve::InferenceRequest> &sub,
                const serve::ServeResult &res,
                const serve::BatchRecord &b,
                std::vector<ReplayCheck> &checks)
    {
        Slice slice;
        slice.slo = b.slo;
        slice.vddvWeights = b.plan.vddvWeights;
        slice.spanFrom = rec.spans().size();
        const std::string tag = "serve.batch" + std::to_string(b.seq);

        // InferenceServer::executeBatch's streams and device map.
        const Rng base(ncfg.seed);
        const sram::VulnerabilityMap device(ncfg.seed, 0);
        resilience::ResiliencePolicy policy = ncfg.policy;
        policy.startLevel = b.plan.weightLevel;

        // The real staging call.
        accel::DanteChip chip(ncfg.chip, ctx_.tech, ctx_.failure);
        chip.resetCounters();
        resilience::ResilientMemory rmem(chip.weightMemory(), ctx_, policy);
        rmem.reseed(base.split(1'000'000 + 2 * b.seq));
        dnn::Network staged = net_.clone();
        std::uint64_t flips = 0;
        {
            ScopedSpan span(rec, "fi.corrupt_network_resilient");
            flips = fi::corruptNetworkResilient(staged, net_, rmem,
                                                b.plan.vdd, device);
        }
        const resilience::ResilienceStats rs = rmem.snapshot();
        expectEqual(checks, tag + ".residual_flips", flips,
                    b.residualFlips);
        expectEqual(checks, tag + ".reads", rs.reads, b.resilience.reads);
        expectEqual(checks, tag + ".retries", rs.retries,
                    b.resilience.retries);
        expectEqual(checks, tag + ".spare_digest", rs.spareTableDigest,
                    b.resilience.spareTableDigest);

        // The same staging, word by word through ResilientMemory.
        accel::DanteChip chip2(ncfg.chip, ctx_.tech, ctx_.failure);
        chip2.resetCounters();
        resilience::ResilientMemory rmem2(chip2.weightMemory(), ctx_,
                                          policy);
        rmem2.reseed(base.split(1'000'000 + 2 * b.seq));
        dnn::Network words = net_.clone();
        std::uint64_t residual = 0;
        {
            ScopedSpan span(rec, "fi.stage_weights");
            residual = stageWordByWord(rec, words, rmem2, b.plan.vdd,
                                       device);
        }
        slice.stats = rmem2.snapshot();
        expectEqual(checks, tag + ".word_replay_flips", residual, flips);
        expectEqual(checks, tag + ".word_replay_weights",
                    recovery::weightsDigest(words),
                    recovery::weightsDigest(staged));
        expectEqual(checks, tag + ".word_replay_clean_reads",
                    slice.stats.cleanReads, b.resilience.cleanReads);

        // Inputs and inference.
        std::vector<std::size_t> samples;
        for (std::size_t i = 0; i < sub.size(); ++i) {
            const serve::RequestOutcome &o = res.outcomes[i];
            if (o.admitted && o.batchSeq == b.seq)
                samples.push_back(sub[i].sample);
        }
        const dnn::Dataset inputs = pool_.gather(samples);
        const sram::FailureRateModel frm(ctx_.failure);
        Rng input_rng = base.split(1'000'001 + 2 * b.seq);
        dnn::Tensor x;
        {
            ScopedSpan span(rec, "fi.corrupt_inputs");
            x = fi::corruptInputs(inputs.images, device,
                                  frm.rate(b.plan.vddvInputs),
                                  ncfg.inputFlipProb, ncfg.layout,
                                  input_rng);
        }
        std::vector<int> pred;
        {
            ScopedSpan span(rec, "dnn.predict");
            pred = staged.predict(x);
        }
        expectEqual(checks, tag + ".predictions", pred, b.predictions);

        // Performance model, as executeBatch charges it.
        accel::RetryOverhead overhead;
        if (rs.reads > 0) {
            overhead.retryRate = static_cast<double>(rs.retries) /
                                 static_cast<double>(rs.reads);
            overhead.escalatedFraction =
                static_cast<double>(rs.escalations) /
                static_cast<double>(rs.reads + rs.retries);
            overhead.escalatedLevel =
                std::min(b.plan.weightLevel + 1, ncfg.chip.boostLevels);
        }
        const auto n = static_cast<std::uint64_t>(samples.size());
        accel::LayerActivity activity;
        activity.macs = perInference_.macs * n;
        activity.weightAccesses = perInference_.weightAccesses;
        activity.inputAccesses = perInference_.inputAccesses * n;
        activity.psumAccesses = perInference_.psumAccesses * n;
        accel::TimingOverhead timing;
        timing.replayRate = b.plan.replayRate;
        timing.bubbleRate = b.plan.bubbleRate;
        timing.vLogic = b.plan.vLogic;
        timing.clockStretch = b.plan.clockStretch;
        const accel::PerformanceModel perf_model(
            ctx_, ncfg.chip.weightBanks, ncfg.perf);
        accel::PerfResult perf;
        {
            ScopedSpan span(rec, "accel.evaluate");
            perf = perf_model.evaluate(activity, b.plan.vdd,
                                       b.plan.weightLevel,
                                       accel::SupplyMode::Boosted,
                                       overhead, timing);
        }
        const auto service = std::max<serve::Tick>(
            1, static_cast<serve::Tick>(std::ceil(
                   perf.runtime.value() * ncfg.ticksPerSecond)));
        expectEqual(checks, tag + ".service_ticks", service,
                    b.serviceTicks);
        expectEqual(checks, tag + ".energy",
                    bits(perf.totalEnergy.value()),
                    bits(b.modeledEnergy.value()));

        slice.spanTo = rec.spans().size();
        slices_.push_back(slice);
    }

    /** fi::corruptNetworkResilient's staging loop, one span per
     *  writeWord / readWord. */
    static std::uint64_t
    stageWordByWord(SpanRecorder &rec, dnn::Network &dst,
                    resilience::ResilientMemory &rmem, Volt vdd,
                    const sram::VulnerabilityMap &map)
    {
        auto weights = dst.weightParams();
        const std::uint32_t capacity = rmem.memory().words();
        std::uint64_t residual = 0;
        std::uint64_t cursor = 0;
        for (auto &w : weights) {
            auto q = dnn::quantize(*w.value);
            for (std::size_t g = 0; g < q.words.size(); g += 4) {
                std::uint64_t word = 0;
                for (std::size_t k = 0; k < 4 && g + k < q.words.size();
                     ++k)
                    word |= static_cast<std::uint64_t>(
                                static_cast<std::uint16_t>(q.words[g + k]))
                            << (16 * k);
                const auto addr =
                    static_cast<std::uint32_t>(cursor % capacity);
                ++cursor;
                {
                    ScopedSpan span(rec, "resilience.write");
                    rmem.writeWord(addr, word, vdd);
                }
                resilience::ReadOutcome out;
                {
                    ScopedSpan span(rec, "resilience.read");
                    out = rmem.readWord(addr, vdd, map);
                }
                residual += static_cast<std::uint64_t>(
                    std::popcount(word ^ out.data));
                for (std::size_t k = 0; k < 4 && g + k < q.words.size();
                     ++k)
                    q.words[g + k] = static_cast<std::int16_t>(
                        static_cast<std::uint16_t>(out.data >> (16 * k)));
            }
            *w.value = dnn::dequantize(q);
        }
        return residual;
    }

    int threads_ = 1;
    core::SimContext ctx_ = core::SimContext::standard();
    dnn::Network net_;
    dnn::Dataset pool_;
    accel::LayerActivity perInference_;
    std::unique_ptr<serve::OperatingPointPlanner> planner_;
    std::vector<serve::InferenceRequest> trace_;
    cluster::ClusterConfig cluster_;
    cluster::ClusterResult last_;
    std::vector<Slice> slices_;
};

// ---------------------------------------------------------------------
// sweep: the fig14 measurement phase — an accuracy curve of the trained
// AlexNet over iid maps, open loop, `auto` backend, several threads.

class SweepWorkload final : public Workload
{
  public:
    void
    setup(const RunConfig &cfg) override
    {
        threads_ = cfg.threads;
        seed_ = cfg.seed;
        net_ = loadModel(cfg.modelDir, kAlexNet,
                         cfg.modelDigests.at(kAlexNet));
        test_ = dnn::makeSyntheticCifar(kSweepSamples, dataSeed(cfg.seed));
        fi::ExperimentConfig fcfg;
        fcfg.numMaps = kSweepMaps;
        fcfg.seed = cfg.seed;
        fcfg.maxTestSamples = kSweepSamples;
        fcfg.numThreads = threads_;
        runner_ = std::make_unique<fi::FaultInjectionRunner>(net_, test_,
                                                             fcfg);
    }

    UnitResult
    unit(SpanRecorder &rec) override
    {
        {
            ScopedSpan span(rec, "fi.accuracy_curve");
            curve_ = fi::AccuracyCurve::sample(
                *runner_, fi::InjectionSpec::allWeights(), kFMin, kFMax,
                kSweepPoints);
        }
        std::uint64_t h = recovery::kFnvOffset;
        for (double a : curve_->accuracies())
            h = recovery::fnvMixDouble(h, a);
        UnitResult r;
        r.items = static_cast<std::uint64_t>(kSweepMaps) * kSweepPoints *
                  kSweepSamples;
        r.checks = {{"accuracy_curve", hex(h)},
                    {"fault_free", bits(curve_->faultFree())}};
        return r;
    }

    int
    replay(SpanRecorder &rec, std::vector<ReplayCheck> &checks) override
    {
        if (!curve_)
            fatal("sweep replay needs a completed accuracy curve");
        ScopedSpan root(rec, "sweep.replay");
        // FaultInjectionRunner::run at the curve's middle point, every
        // map serially on one scratch network.
        const int k = kSweepPoints / 2;
        const double f = pointProb(k);
        dnn::Network scratch = net_.clone();
        const dnn::Dataset eval = test_.slice(0, kSweepSamples);
        RunningStats acc;
        for (int m = 0; m < kSweepMaps; ++m) {
            const auto mu = static_cast<std::uint64_t>(m);
            const sram::VulnerabilityMap map(seed_, mu);
            Rng rng = Rng(seed_).split(1000 + mu);
            {
                ScopedSpan span(rec, "fi.corrupt");
                fi::corruptNetwork(scratch, net_, map, f,
                                   fi::InjectionSpec::allWeights(),
                                   fi::MemoryLayout{}, rng);
            }
            // SgdTrainer::evaluate's batching.
            std::size_t correct = 0;
            for (std::size_t s = 0; s < eval.size(); s += 8) {
                const std::size_t n = std::min<std::size_t>(8, eval.size() - s);
                const dnn::Dataset batch = eval.slice(s, n);
                std::vector<int> pred;
                {
                    ScopedSpan span(rec, "dnn.forward");
                    pred = scratch.predict(batch.images);
                }
                for (std::size_t i = 0; i < n; ++i)
                    correct += pred[i] == batch.labels[i] ? 1u : 0u;
            }
            RunningStats one;
            one.add(static_cast<double>(correct) /
                    static_cast<double>(eval.size()));
            acc.merge(one);
        }
        expectEqual(checks, "sweep.point" + std::to_string(k) + ".accuracy",
                    bits(acc.mean()),
                    bits(curve_->accuracies()[static_cast<std::size_t>(k)]));
        return root.id();
    }

    void
    layerMetrics(const SpanRecorder &rec, int root, const UnitTimes &,
                 Metrics &m) override
    {
        const auto t = subtree(rec, root);
        // One replayed point stands for each of the unit's points.
        m["fi.corrupt_s"] = {total(t, "fi.corrupt") * kSweepPoints, "s"};
        m["dnn.forward_s"] = {total(t, "dnn.forward") * kSweepPoints, "s"};
        const std::uint64_t wbits = weightBits(net_);
        m["fi.corrupt_ns_per_bit"] = {
            total(t, "fi.corrupt") * 1e9 /
                static_cast<double>(wbits * kSweepMaps),
            "ns"};
        m["fi.sweep_jobs"] = {static_cast<double>(kSweepMaps * kSweepPoints),
                              "count"};
        const double f = pointProb(kSweepPoints / 2);
        const sram::VulnerabilityMap map(seed_, 0);
        const std::uint64_t cells =
            std::min<std::uint64_t>(wbits, fi::MemoryLayout{}.weightRegionBits);
        m["sram.faulty_cell_frac"] = {
            static_cast<double>(map.countFaulty(cells, f)) /
                static_cast<double>(cells),
            "frac"};
        m["sram.is_faulty_ns.iid"] = {isFaultyNs(map, f), "ns"};
        kernelMetrics(m);
    }

    int threads() const override { return threads_; }

    /** isFaulty cost per call over the weight region. */
    static double
    isFaultyNs(const sram::VulnerabilityMap &map, double f)
    {
        constexpr std::uint64_t kCells = 1 << 18;
        return nsPerCall(
            [&] {
                std::uint64_t hits = 0;
                for (std::uint64_t c = 0; c < kCells; ++c)
                    hits += map.isFaulty(c, f) ? 1u : 0u;
                g_sink = g_sink + hits;
            },
            kCells);
    }

  private:
    static constexpr double kFMin = 1e-5;
    static constexpr double kFMax = 0.3;

    /** AccuracyCurve::sample's k-th failure probability. */
    static double
    pointProb(int k)
    {
        const double lo = std::log(kFMin), hi = std::log(kFMax);
        return std::exp(lo + (hi - lo) * k / (kSweepPoints - 1));
    }

    /** The dnn::Backend kernels called directly at conv2's shape (the
     *  5x5 16->24 layer on 16x16 maps) and conv1's pooling. */
    void
    kernelMetrics(Metrics &m)
    {
        const dnn::Backend &be = dnn::activeBackend();
        const dnn::ConvLayerDims d = dnn::alexNetCifarConvDims()[1];
        dnn::ConvGeom g;
        g.inCh = d.inChannels;
        g.outCh = d.outChannels;
        g.kernel = d.kernel;
        g.pad = d.kernel / 2;
        g.h = d.inHeight;
        g.w = d.inWidth;
        const auto patch = static_cast<std::size_t>(g.patch());
        const std::size_t spatial = g.spatial();
        const auto out_ch = static_cast<std::size_t>(g.outCh);
        Rng rng(11);
        auto fill = [&](std::vector<float> &v) {
            for (float &x : v)
                x = static_cast<float>(rng.uniform() - 0.5);
        };
        std::vector<float> image(static_cast<std::size_t>(g.inCh) *
                                 static_cast<std::size_t>(g.h * g.w));
        std::vector<float> weights(out_ch * patch), bias(out_ch);
        std::vector<float> out(out_ch * spatial), cols;
        std::vector<float> b(patch * spatial);
        fill(image);
        fill(weights);
        fill(bias);
        fill(b);
        constexpr int kCalls = 16;

        const double gemm_ops =
            2.0 * static_cast<double>(out_ch * patch * spatial);
        m["dnn.backend.gemm.ns_per_call"] = {
            nsPerCall([&] {
                for (int i = 0; i < kCalls; ++i)
                    be.gemm(weights.data(), b.data(), out.data(),
                            g.outCh, g.patch(),
                            static_cast<int>(spatial), false);
            }, kCalls),
            "ns"};
        m["dnn.backend.gemm.ops"] = {gemm_ops, "count"};
        m["dnn.backend.gemm.bytes"] = {
            4.0 * static_cast<double>(out_ch * patch + patch * spatial +
                                      out_ch * spatial),
            "B"};

        m["dnn.backend.im2col_conv.ns_per_call"] = {
            nsPerCall([&] {
                for (int i = 0; i < kCalls; ++i)
                    be.im2colConv(image.data(), weights.data(),
                                  bias.data(), out.data(), g, cols);
            }, kCalls),
            "ns"};
        m["dnn.backend.im2col_conv.ops"] = {gemm_ops, "count"};
        m["dnn.backend.im2col_conv.bytes"] = {
            4.0 * static_cast<double>(image.size() + weights.size() +
                                      bias.size() + 2 * patch * spatial +
                                      out.size()),
            "B"};

        // conv1's output: 16 channels of 32x32, one image.
        const int pc = 16, ph = 32, pw = 32;
        std::vector<float> px(static_cast<std::size_t>(pc * ph * pw)),
            py(px.size() / 4);
        fill(px);
        m["dnn.backend.maxpool.ns_per_call"] = {
            nsPerCall([&] {
                for (int i = 0; i < kCalls; ++i)
                    be.maxPool2x2(px.data(), py.data(), 1, pc, ph, pw);
            }, kCalls),
            "ns"};
        m["dnn.backend.maxpool.ops"] = {3.0 * static_cast<double>(py.size()),
                                        "count"};
        m["dnn.backend.maxpool.bytes"] = {
            4.0 * static_cast<double>(px.size() + py.size()), "B"};

        // conv2's weights through the fused corrupt-and-dequantize
        // kernel at the curve's middle failure probability.
        dnn::Tensor wt({static_cast<int>(weights.size())});
        std::copy(weights.begin(), weights.end(), wt.data());
        const dnn::QuantizedTensor q = dnn::quantize(wt);
        std::vector<std::int16_t> words(q.words.size());
        std::vector<float> decoded(q.words.size());
        const sram::VulnerabilityMap map(seed_, 0);
        const sram::FaultParams params{pointProb(kSweepPoints / 2), 0.5};
        const dnn::FaultWindow win{0, fi::MemoryLayout{}.weightRegionBits, 0};
        m["dnn.backend.fault_dequant.ns_per_call"] = {
            nsPerCall([&] {
                for (int i = 0; i < kCalls; ++i) {
                    words = q.words;
                    Rng r(static_cast<std::uint64_t>(i));
                    g_sink = g_sink + be.applyFaultMapDequant(
                                          words, q.codec, decoded.data(),
                                          map, win, params, r);
                }
            }, kCalls),
            "ns"};
        m["dnn.backend.fault_dequant.ops"] = {
            static_cast<double>(words.size()) * 16.0, "count"};
        m["dnn.backend.fault_dequant.bytes"] = {
            static_cast<double>(words.size()) * (2.0 + 4.0), "B"};
    }

    int threads_ = 1;
    std::uint64_t seed_ = 0;
    dnn::Network net_;
    dnn::Dataset test_;
    std::unique_ptr<fi::FaultInjectionRunner> runner_;
    std::optional<fi::AccuracyCurve> curve_;
};

// ---------------------------------------------------------------------
// Shared straight-through training step of the replays.

/** Velocity-momentum update of SgdTrainer / MapAwareTrainer. */
void
sgdUpdate(std::vector<dnn::ParamRef> &clean,
          const std::vector<dnn::ParamRef> &grads,
          std::vector<dnn::Tensor> &velocity, double momentum, double lr,
          float gclip, float wclip)
{
    for (std::size_t p = 0; p < clean.size(); ++p) {
        dnn::Tensor &v = velocity[p];
        dnn::Tensor &value = *clean[p].value;
        const dnn::Tensor &g = *grads[p].grad;
        for (std::size_t e = 0; e < value.numel(); ++e) {
            float ge = g[e];
            if (gclip > 0.0f)
                ge = std::clamp(ge, -gclip, gclip);
            v[e] = static_cast<float>(momentum * v[e] - lr * ge);
            value[e] += v[e];
            if (wclip > 0.0f)
                value[e] = std::clamp(value[e], -wclip, wclip);
        }
    }
}

/** Argmax hits of a logits batch. */
std::size_t
hits(const dnn::Tensor &logits, const std::vector<int> &labels)
{
    std::size_t correct = 0;
    for (int r = 0; r < logits.dim(0); ++r) {
        int best = 0;
        for (int c = 1; c < logits.dim(1); ++c) {
            if (logits.at(r, c) > logits.at(r, best))
                best = c;
        }
        correct += best == labels[static_cast<std::size_t>(r)] ? 1u : 0u;
    }
    return correct;
}

/** Fisher-Yates shuffle of the trainers. */
void
shuffle(std::vector<std::size_t> &order, Rng &rng)
{
    for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j = rng.uniformInt(i);
        std::swap(order[i - 1], order[j]);
    }
}

// ---------------------------------------------------------------------
// train: one SgdTrainer epoch of AlexNet-for-CIFAR from the prepared
// weights over a seeded synthetic set; no fault map anywhere.

class TrainWorkload final : public Workload
{
  public:
    void
    setup(const RunConfig &cfg) override
    {
        seed_ = cfg.seed;
        start_ = loadModel(cfg.modelDir, kAlexNet,
                           cfg.modelDigests.at(kAlexNet));
        set_ = dnn::makeSyntheticCifar(kTrainSamples, dataSeed(cfg.seed));
        tcfg_.epochs = 1;
        tcfg_.learningRate = 0.05;
    }

    UnitResult
    unit(SpanRecorder &rec) override
    {
        dnn::Network net = start_.clone();
        Rng rng(seed_);
        std::vector<dnn::EpochStats> stats;
        {
            ScopedSpan span(rec, "dnn.sgd_train");
            stats = dnn::SgdTrainer(tcfg_).train(net, set_, rng);
        }
        lastDigest_ = recovery::weightsDigest(net);
        lastLoss_ = stats.back().meanLoss;
        UnitResult r;
        r.items = set_.size();
        r.checks = {{"weights", hex(lastDigest_)},
                    {"loss", bits(lastLoss_)},
                    {"train_accuracy", bits(stats.back().trainAccuracy)}};
        return r;
    }

    int
    replay(SpanRecorder &rec, std::vector<ReplayCheck> &checks) override
    {
        ScopedSpan root(rec, "train.replay");
        // SgdTrainer::train's loop for one epoch.
        dnn::Network net = start_.clone();
        Rng rng(seed_);
        auto params = net.params();
        std::vector<dnn::Tensor> velocity;
        for (auto &p : params)
            velocity.push_back(dnn::Tensor::zeros(p.value->shape()));
        std::vector<std::size_t> order(set_.size());
        std::iota(order.begin(), order.end(), 0);
        shuffle(order, rng);
        const dnn::SoftmaxCrossEntropy loss_fn;
        double loss_sum = 0.0;
        std::size_t batches = 0;
        const auto bs = static_cast<std::size_t>(tcfg_.batchSize);
        for (std::size_t start = 0; start < order.size(); start += bs) {
            const std::size_t n = std::min(bs, order.size() - start);
            const std::vector<std::size_t> idx(
                order.begin() + static_cast<long>(start),
                order.begin() + static_cast<long>(start + n));
            const dnn::Dataset batch = set_.gather(idx);
            net.zeroGrads();
            dnn::Tensor logits;
            {
                ScopedSpan span(rec, "dnn.forward_train");
                logits = net.forward(batch.images, /*train=*/true);
            }
            dnn::Tensor grad;
            {
                ScopedSpan span(rec, "dnn.loss");
                loss_sum += loss_fn.lossAndGrad(logits, batch.labels, grad);
            }
            ++batches;
            {
                ScopedSpan span(rec, "dnn.backward");
                net.backward(grad);
            }
            sgdUpdate(params, params, velocity, tcfg_.momentum,
                      tcfg_.learningRate, 0.0f, 0.0f);
        }
        expectEqual(checks, "train.weights", recovery::weightsDigest(net),
                    lastDigest_);
        expectEqual(checks, "train.loss",
                    bits(loss_sum / static_cast<double>(batches)),
                    bits(lastLoss_));
        return root.id();
    }

    void
    layerMetrics(const SpanRecorder &rec, int root, const UnitTimes &,
                 Metrics &m) override
    {
        const auto t = subtree(rec, root);
        m["dnn.forward_train_s"] = {total(t, "dnn.forward_train"), "s"};
        m["dnn.loss_s"] = {total(t, "dnn.loss"), "s"};
        m["dnn.backward_s"] = {total(t, "dnn.backward"), "s"};
        m["dnn.trainer_other_s"] = {self(t, "train.replay"), "s"};
    }

    int threads() const override { return 1; }

  private:
    std::uint64_t seed_ = 0;
    dnn::Network start_;
    dnn::Dataset set_;
    dnn::TrainConfig tcfg_;
    std::uint64_t lastDigest_ = 0;
    double lastLoss_ = 0.0;
};

// ---------------------------------------------------------------------
// recover: MATIC map-aware training of the FC-DNN against one frozen
// clustered chip map, then ChipEvaluator on that chip.

class RecoverWorkload final : public Workload
{
  public:
    void
    setup(const RunConfig &cfg) override
    {
        threads_ = cfg.threads;
        seed_ = cfg.seed;
        start_ = loadModel(cfg.modelDir, kMnistFc,
                           cfg.modelDigests.at(kMnistFc));
        set_ = dnn::makeSyntheticMnist(kRecoverSamples, dataSeed(cfg.seed));
        eval_ = dnn::makeSyntheticMnist(kRecoverEvalSamples,
                                        dataSeed(cfg.seed) + 1);
        mcfg_.train.base.epochs = 1;
        mcfg_.train.failProb = kRecoverFailProb;
        mcfg_.train.warmupEpochs = 0;
        mcfg_.train.seed = cfg.seed;
        mcfg_.curriculumEpochs = 0;
        mcfg_.mapModel = sram::MapModel::Clustered;
        ecfg_.numReads = kRecoverReads;
        ecfg_.maxTestSamples = kRecoverEvalSamples;
        ecfg_.numThreads = threads_;
    }

    UnitResult
    unit(SpanRecorder &rec) override
    {
        dnn::Network net = start_.clone();
        dnn::Network scratch = start_.clone();
        recovery::MapAwareTrainer trainer(mcfg_);
        Rng rng(seed_);
        {
            ScopedSpan span(rec, "recovery.train");
            lastStats_ = trainer.train(net, scratch, set_, rng);
        }
        recovery::ChipAccuracy acc;
        {
            ScopedSpan span(rec, "recovery.eval");
            recovery::ChipEvaluator ev(net, eval_, trainer.chipMap(), ecfg_);
            acc = ev.evaluate(kRecoverFailProb);
        }
        lastDigest_ = recovery::weightsDigest(net);
        UnitResult r;
        r.items = set_.size();
        r.checks = {{"weights", hex(lastDigest_)},
                    {"map_aware_stats", hex(lastStats_.digest())},
                    {"chip_accuracy", hex(acc.digest)}};
        return r;
    }

    int
    replay(SpanRecorder &rec, std::vector<ReplayCheck> &checks) override
    {
        ScopedSpan root(rec, "recover.replay");
        // MapAwareTrainer::train for one epoch with no warm-up and no
        // curriculum: the deployment rate, re-profiled every
        // refreshInterval + 1 batches.
        dnn::Network net = start_.clone();
        dnn::Network scratch = start_.clone();
        const sram::VulnerabilityMap map(mcfg_.chipSeed, mcfg_.chipMapIndex,
                                         mcfg_.mapModel, mcfg_.cluster);
        Rng rng(seed_);
        auto clean = net.params();
        auto noisy = scratch.params();
        std::vector<dnn::Tensor> velocity;
        for (auto &p : clean)
            velocity.push_back(dnn::Tensor::zeros(p.value->shape()));
        auto spec = fi::InjectionSpec::allWeights();
        spec.flipProb = mcfg_.train.flipProb;
        std::vector<std::size_t> order(set_.size());
        std::iota(order.begin(), order.end(), 0);
        shuffle(order, rng);

        const dnn::SoftmaxCrossEntropy loss_fn;
        recovery::MapAwareStats stats;
        const auto &base = mcfg_.train.base;
        double loss_sum = 0.0;
        std::size_t correct = 0, seen = 0, batches = 0;
        int since_refresh = 0;
        bool profiled = false;
        const auto bs = static_cast<std::size_t>(base.batchSize);
        for (std::size_t start = 0; start < order.size(); start += bs) {
            const std::size_t n = std::min(bs, order.size() - start);
            const std::vector<std::size_t> idx(
                order.begin() + static_cast<long>(start),
                order.begin() + static_cast<long>(start + n));
            const dnn::Dataset batch = set_.gather(idx);
            if (!profiled || (mcfg_.refreshInterval > 0 &&
                              since_refresh >= mcfg_.refreshInterval)) {
                profiled = true;
                since_refresh = 0;
                ++stats.mapRefreshes;
            } else {
                ++since_refresh;
            }
            Rng flip_rng = Rng(mcfg_.train.seed).split(batches);
            {
                ScopedSpan span(rec, "fi.corrupt");
                stats.bitFlips += fi::corruptNetwork(
                    scratch, net, map, mcfg_.train.failProb, spec,
                    mcfg_.train.layout, flip_rng);
            }
            scratch.zeroGrads();
            dnn::Tensor logits;
            {
                ScopedSpan span(rec, "dnn.forward_train");
                logits = scratch.forward(batch.images, /*train=*/true);
            }
            dnn::Tensor grad;
            {
                ScopedSpan span(rec, "dnn.loss");
                loss_sum += loss_fn.lossAndGrad(logits, batch.labels, grad);
            }
            ++batches;
            {
                ScopedSpan span(rec, "dnn.backward");
                scratch.backward(grad);
            }
            correct += hits(logits, batch.labels);
            seen += n;
            sgdUpdate(clean, noisy, velocity, base.momentum,
                      base.learningRate,
                      static_cast<float>(mcfg_.train.gradClip),
                      static_cast<float>(mcfg_.train.weightClip));
            stats.finalInjectedProb = mcfg_.train.failProb;
        }
        stats.batches = batches;
        dnn::EpochStats es;
        es.meanLoss = loss_sum / static_cast<double>(batches);
        es.trainAccuracy =
            static_cast<double>(correct) / static_cast<double>(seen);
        stats.epochs.push_back(es);
        expectEqual(checks, "recover.weights", recovery::weightsDigest(net),
                    lastDigest_);
        expectEqual(checks, "recover.map_aware_stats", stats.digest(),
                    lastStats_.digest());
        return root.id();
    }

    void
    layerMetrics(const SpanRecorder &rec, int root, const UnitTimes &,
                 Metrics &m) override
    {
        const auto t = subtree(rec, root);
        const double replay_s = total(t, "recover.replay");
        m["fi.corrupt_s"] = {total(t, "fi.corrupt"), "s"};
        const std::uint64_t staged =
            weightBits(start_) * count(t, "fi.corrupt");
        m["fi.corrupt_ns_per_bit"] = {
            staged ? total(t, "fi.corrupt") * 1e9 /
                         static_cast<double>(staged)
                   : 0.0,
            "ns"};
        m["recovery.corrupt_frac"] = {
            replay_s > 0 ? total(t, "fi.corrupt") / replay_s : 0.0, "frac"};
        m["dnn.forward_train_s"] = {total(t, "dnn.forward_train"), "s"};
        m["dnn.loss_s"] = {total(t, "dnn.loss"), "s"};
        m["dnn.backward_s"] = {total(t, "dnn.backward"), "s"};
        m["dnn.trainer_other_s"] = {self(t, "recover.replay"), "s"};
        const auto units = rec.totals(0, rec.spans().size());
        const auto per_unit = [&](const char *name) {
            const std::uint64_t c = count(units, name);
            return c ? total(units, name) / static_cast<double>(c) : 0.0;
        };
        m["recovery.train_s"] = {per_unit("recovery.train"), "s"};
        m["recovery.eval_s"] = {per_unit("recovery.eval"), "s"};
        const sram::VulnerabilityMap map(mcfg_.chipSeed, mcfg_.chipMapIndex,
                                         mcfg_.mapModel, mcfg_.cluster);
        const std::uint64_t cells = std::min<std::uint64_t>(
            weightBits(start_), fi::MemoryLayout{}.weightRegionBits);
        m["sram.faulty_cell_frac"] = {
            static_cast<double>(map.countFaulty(cells, kRecoverFailProb)) /
                static_cast<double>(cells),
            "frac"};
        m["sram.is_faulty_ns.clustered"] = {
            SweepWorkload::isFaultyNs(map, kRecoverFailProb), "ns"};
    }

    int threads() const override { return threads_; }

  private:
    int threads_ = 1;
    std::uint64_t seed_ = 0;
    dnn::Network start_;
    dnn::Dataset set_;
    dnn::Dataset eval_;
    recovery::MapAwareConfig mcfg_;
    recovery::ChipEvalConfig ecfg_;
    recovery::MapAwareStats lastStats_;
    std::uint64_t lastDigest_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "serve")
        return std::make_unique<ServeWorkload>();
    if (name == "sweep")
        return std::make_unique<SweepWorkload>();
    if (name == "train")
        return std::make_unique<TrainWorkload>();
    if (name == "recover")
        return std::make_unique<RecoverWorkload>();
    fatal("unknown workload '", name, "'");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printReplayChecks(const std::vector<ReplayCheck> &checks, const char *pass)
{
    for (const ReplayCheck &c : checks) {
        printLine(std::string("{\"kind\":\"replay\",\"pass\":") +
                  jsonString(pass) + ",\"name\":" + jsonString(c.name) +
                  ",\"ok\":" + (c.ok ? "true" : "false") + "}");
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"serve", "sweep",
                                                   "train", "recover"};
    return names;
}

int
runWorkload(const RunConfig &cfg)
{
    // Set-up, several times; the first one is timed from main().
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (int r = 0; r < kSetupRepeats || nowNs() - cfg.startNs < kSetupMinNs;
         ++r) {
        const std::int64_t t0 = r == 0 ? cfg.startNs : nowNs();
        w = makeWorkload(cfg.workload);
        w->setup(cfg);
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    // Timed units. The traced run spends half its time here (spans
    // around the top-level calls only) and the rest on the replay.
    SpanRecorder rec(cfg.trace, static_cast<std::uint64_t>(cfg.startNs));
    const std::int64_t budget_ns =
        static_cast<std::int64_t>(cfg.seconds) * 1'000'000'000 /
        (cfg.trace ? 2 : 1);
    const std::int64_t deadline = nowNs() + budget_ns;
    std::vector<double> walls, cpus;
    std::uint64_t items = 0;
    int index = 0;
    std::optional<CoreRotation> rotation;
    if (w->threads() == 1)
        rotation.emplace();
    while (index < kMinUnits || nowNs() < deadline) {
        if (rotation)
            rotation->next();
        const std::int64_t c0 = cpuNs();
        const std::int64_t t0 = nowNs();
        try {
            const UnitResult r = w->unit(rec);
            const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
            const double cpu = static_cast<double>(cpuNs() - c0) * 1e-9;
            items += r.items;
            walls.push_back(wall);
            cpus.push_back(cpu);
            std::ostringstream os;
            os.precision(17);
            os << "{\"kind\":\"unit\",\"index\":" << index
               << ",\"items\":" << r.items << ",\"wall_s\":" << wall
               << ",\"cpu_s\":" << cpu
               << ",\"checks\":" << checksJson(r.checks) << "}";
            printLine(os.str());
        } catch (const std::exception &e) {
            printLine(std::string("{\"kind\":\"error\",\"index\":") +
                      std::to_string(index) +
                      ",\"message\":" + jsonString(e.what()) + "}");
        }
        ++index;
    }
    rotation.reset();

    Metrics m;
    if (!cfg.trace) {
        // Work per host second over the whole timed phase.
        m["items_per_s"] = {
            static_cast<double>(items) /
                std::accumulate(walls.begin(), walls.end(), 0.0),
            "items/s"};
        m["setup_s"] = {median(setup_s), "s"};
        m["peak_rss_mb"] = {peakRssMb(), "MB"};
        printMetrics(m);
        return 0;
    }

    const UnitTimes units{median(walls), median(cpus)};
    m["common.parallel_eff"] = {
        units.wallS > 0 ? units.cpuS / (units.wallS * w->threads()) : 0.0,
        "frac"};
    try {
        // A warm-up pass, then rounds of an untraced and a traced pass
        // back to back: the median of the rounds' time ratios is the
        // tracing overhead. The last traced pass, on the run's
        // recorder, gives the per-layer metrics.
        int root = -1;
        const auto pass = [&](SpanRecorder &r, const char *name) {
            std::vector<ReplayCheck> checks;
            const std::int64_t t0 = nowNs();
            root = w->replay(r, checks);
            const double s = static_cast<double>(nowNs() - t0) * 1e-9;
            printReplayChecks(checks, name);
            return s;
        };
        SpanRecorder off(false, rec.runId());
        pass(off, "warmup");
        std::vector<double> ratios;
        for (int i = 0; i < kOverheadRounds; ++i) {
            const double untraced = pass(off, "untraced");
            SpanRecorder discarded(true, rec.runId());
            ratios.push_back(
                pass(i + 1 < kOverheadRounds ? discarded : rec, "traced") /
                untraced);
        }
        w->layerMetrics(rec, root, units, m);
        m["trace.overhead_frac"] = {median(ratios) - 1.0, "frac"};
        m["trace.coverage"] = {rec.coverage(root), "frac"};
    } catch (const std::exception &e) {
        printLine(std::string("{\"kind\":\"error\",\"index\":-1,") +
                  "\"message\":" + jsonString(e.what()) + "}");
    }
    if (!cfg.spansOut.empty())
        rec.writeJson(cfg.spansOut, cfg.workload);
    printMetrics(m);
    return 0;
}

} // namespace vbb
