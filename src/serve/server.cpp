#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/scope.hpp"

namespace vboost::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
hashU64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

void
hashDouble(std::uint64_t &h, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    hashU64(h, bits);
}

void
hashString(std::uint64_t &h, const std::string &s)
{
    hashU64(h, s.size());
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

void
hashTenant(std::uint64_t &h, const TenantStats &t)
{
    hashU64(h, t.requests);
    hashU64(h, t.admitted);
    hashU64(h, t.shedQueueFull);
    hashU64(h, t.shedTenantQuota);
    hashU64(h, t.batches);
    hashU64(h, t.inferences);
    hashU64(h, t.correct);
    hashU64(h, t.retries);
    hashU64(h, t.escalations);
    hashU64(h, t.quarantines);
    hashU64(h, t.uncorrected);
    hashDouble(h, t.energyPj);
    hashU64(h, t.queueWaitTicksSum);
    hashU64(h, t.latencyTicksSum);
    hashU64(h, t.maxLatencyTicks);
    hashU64(h, static_cast<std::uint64_t>(t.finalVddStep));
}

} // namespace

void
ServerConfig::validate() const
{
    if (queueCapacity == 0)
        fatal("ServerConfig: queueCapacity must be > 0");
    if (workerSlots < 1)
        fatal("ServerConfig: workerSlots must be >= 1, got ",
              workerSlots);
    if (feedbackInterval < 1)
        fatal("ServerConfig: feedbackInterval must be >= 1, got ",
              feedbackInterval);
    if (ticksPerSecond <= 0.0)
        fatal("ServerConfig: ticksPerSecond must be > 0");
    policy.validate(chip.boostLevels);
}

std::uint64_t
ServerStats::fingerprint() const
{
    std::uint64_t h = kFnvOffset;
    hashTenant(h, total);
    hashU64(h, perTenant.size());
    for (const auto &[name, tenant] : perTenant) {
        hashString(h, name);
        hashTenant(h, tenant);
    }
    hashDouble(h, meanBatchSize);
    hashDouble(h, p50LatencyTicks);
    hashDouble(h, p95LatencyTicks);
    hashDouble(h, accuracy);
    return h;
}

InferenceServer::InferenceServer(const core::SimContext &ctx,
                                 dnn::Network &net,
                                 const dnn::Dataset &pool,
                                 accel::LayerActivity per_inference,
                                 OperatingPointPlanner planner,
                                 ServerConfig cfg)
    : ctx_(ctx),
      net_(net),
      pool_(pool),
      perInference_(per_inference),
      planner_(std::move(planner)),
      cfg_(std::move(cfg)),
      perf_(ctx_, cfg_.chip.weightBanks, cfg_.perf),
      failure_(ctx_.failure),
      deviceMap_(cfg_.seed, 0),
      weightIndex_(resilience::ResilientMemory::cleanWordIndex(
          deviceMap_,
          accel::DanteChip(cfg_.chip, ctx_.tech, ctx_.failure)
              .weightMemory()))
{
    cfg_.validate();
    if (pool_.size() == 0)
        fatal("InferenceServer: empty sample pool");
    if (perInference_.macs == 0)
        fatal("InferenceServer: per-inference activity has no MACs");
    slotFreeAt_.assign(static_cast<std::size_t>(cfg_.workerSlots), 0);
}

void
InferenceServer::resetWorkerBacklog()
{
    slotFreeAt_.assign(static_cast<std::size_t>(cfg_.workerSlots), 0);
}

void
InferenceServer::attachObservability(obs::Observability *o,
                                     std::uint64_t trace_pid,
                                     obs::Labels labels)
{
    obs_ = o;
    obsPid_ = trace_pid;
    obsLabels_ = std::move(labels);
}

obs::Labels
InferenceServer::withBase(obs::Labels extra) const
{
    // insert() keeps existing keys, so the explicit labels win over
    // the attached base labels.
    extra.insert(obsLabels_.begin(), obsLabels_.end());
    return extra;
}

std::vector<FormedBatch>
InferenceServer::formBatches(const std::vector<InferenceRequest> &trace,
                             std::vector<RequestOutcome> &outcomes)
{
    BoundedRequestQueue queue(cfg_.queueCapacity, cfg_.perTenantQueueCap);
    DynamicBatcher batcher(cfg_.batcher);
    std::vector<FormedBatch> formed;

    // Queue-depth histogram, sampled once per arrival on this serial
    // path (§11): the distribution of backlog the trace produced.
    std::optional<obs::Histogram> depth;
    if (obs_) {
        const double cap = static_cast<double>(
            std::max<std::size_t>(2, cfg_.queueCapacity));
        depth = obs_->metrics.histogram(
            "serve.queue.depth",
            obs::linearBounds(0.0, cap,
                              std::min(17, static_cast<int>(cap) + 1)),
            withBase({}));
    }

    auto closeInto = [&](std::vector<FormedBatch> &&batches) {
        for (auto &batch : batches) {
            queue.release(batch.tenant, batch.requests.size());
            formed.push_back(std::move(batch));
        }
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const InferenceRequest &req = trace[i];
        // Groups whose wait deadline passed close *before* this arrival
        // is admitted, freeing their queue occupancy first.
        closeInto(batcher.closeDue(req.arrivalTick));

        RequestOutcome &out = outcomes[i];
        out.id = req.id;
        out.tenant = req.tenant;
        out.slo = req.slo;
        out.arrivalTick = req.arrivalTick;

        const AdmissionDecision decision = queue.tryAdmit(req);
        out.admitted = decision.admitted;
        if (!decision.admitted) {
            out.shedReason = decision.reason;
        } else if (auto full = batcher.add(req)) {
            queue.release(full->tenant, full->requests.size());
            formed.push_back(std::move(*full));
        }
        if (depth)
            depth->observe(static_cast<double>(queue.occupancy()));
    }
    closeInto(batcher.closeDue(DynamicBatcher::kNever));
    return formed;
}

void
InferenceServer::executeBatch(const FormedBatch &batch, BatchRecord &rec,
                              WorkerScratch &scratch)
{
    if (!scratch.chip)
        scratch.chip = std::make_unique<accel::DanteChip>(
            cfg_.chip, ctx_.tech, ctx_.failure);
    if (!scratch.net)
        scratch.net = std::make_unique<dnn::Network>(net_.clone());
    // Per-batch energy must not depend on which batches this slot ran
    // before, so the bank counters restart from zero every time.
    scratch.chip->resetCounters();

    resilience::ResiliencePolicy policy = cfg_.policy;
    policy.startLevel = rec.plan.weightLevel;
    resilience::ResilientMemory rmem(scratch.chip->weightMemory(), ctx_,
                                     policy);

    // Counter-split streams keyed by the batch sequence number (§7):
    // identical regardless of which thread/slot executes the batch.
    const Rng base(cfg_.seed);
    rmem.reseed(base.split(1'000'000 + 2 * batch.seq));
    rec.residualFlips = fi::corruptNetworkResilient(
        *scratch.net, net_, rmem, rec.plan.vdd, deviceMap_, weightIndex_);

    std::vector<std::size_t> samples;
    samples.reserve(batch.requests.size());
    for (const InferenceRequest &req : batch.requests)
        samples.push_back(req.sample);
    const dnn::Dataset inputs = pool_.gather(samples);

    Rng input_rng = base.split(1'000'001 + 2 * batch.seq);
    const dnn::Tensor x = fi::corruptInputs(
        inputs.images, deviceMap_, failure_.rate(rec.plan.vddvInputs),
        cfg_.inputFlipProb, cfg_.layout, input_rng);

    rec.predictions = scratch.net->predict(x);
    rec.correct.resize(rec.predictions.size());
    for (std::size_t j = 0; j < rec.predictions.size(); ++j)
        rec.correct[j] = rec.predictions[j] == inputs.labels[j];

    rec.resilience = rmem.snapshot();
    const resilience::ResilienceStats &rs = rec.resilience;
    rec.errorRate =
        rs.reads ? static_cast<double>(rs.reads - rs.cleanReads) /
                       static_cast<double>(rs.reads)
                 : 0.0;

    accel::RetryOverhead overhead;
    if (rs.reads > 0) {
        overhead.retryRate = static_cast<double>(rs.retries) /
                             static_cast<double>(rs.reads);
        overhead.escalatedFraction =
            static_cast<double>(rs.escalations) /
            static_cast<double>(rs.reads + rs.retries);
        overhead.escalatedLevel =
            std::min(rec.plan.weightLevel + 1, cfg_.chip.boostLevels);
    }

    // Weights are staged through the SRAM once per batch; activations
    // and partial sums scale with the batch size.
    const auto b = static_cast<std::uint64_t>(batch.requests.size());
    accel::LayerActivity activity;
    activity.macs = perInference_.macs * b;
    activity.weightAccesses = perInference_.weightAccesses;
    activity.inputAccesses = perInference_.inputAccesses * b;
    activity.psumAccesses = perInference_.psumAccesses * b;

    // The planner's 2-D point carries the datapath perturbation: a
    // zero vLogic with unit stretch degenerates to the 1-D evaluation.
    accel::TimingOverhead timing;
    timing.replayRate = rec.plan.replayRate;
    timing.bubbleRate = rec.plan.bubbleRate;
    timing.vLogic = rec.plan.vLogic;
    timing.clockStretch = rec.plan.clockStretch;

    const accel::PerfResult perf =
        perf_.evaluate(activity, rec.plan.vdd, rec.plan.weightLevel,
                       accel::SupplyMode::Boosted, overhead, timing);
    rec.serviceTicks = std::max<Tick>(
        1, static_cast<Tick>(
               std::ceil(perf.runtime.value() * cfg_.ticksPerSecond)));
    rec.modeledEnergy = perf.totalEnergy;
    rec.sramEnergy = rmem.totalAccessEnergy();

    // Per-bank boost-energy attribution. The counters restarted from
    // zero above, so this is the batch's own spend — a deterministic
    // function of the batch seq, captured here and published serially.
    const sram::BankedMemory &wmem = scratch.chip->weightMemory();
    rec.bankBoostEnergyJ.resize(static_cast<std::size_t>(wmem.banks()));
    for (int bank = 0; bank < wmem.banks(); ++bank) {
        rec.bankBoostEnergyJ[static_cast<std::size_t>(bank)] =
            wmem.bankCounters(bank).boostEnergy.value();
    }
}

void
InferenceServer::assignSlots(std::vector<BatchRecord> &records)
{
    // FCFS over virtual slots in formation order: earliest-free slot
    // wins, ties to the lowest index. A pure function of the service
    // times, so timing never depends on the execution thread count.
    // Slot availability carries over from previous runs (a saturated
    // device stays saturated across back-to-back traces) until
    // resetWorkerBacklog().
    for (BatchRecord &rec : records) {
        std::size_t slot = 0;
        for (std::size_t s = 1; s < slotFreeAt_.size(); ++s) {
            if (slotFreeAt_[s] < slotFreeAt_[slot])
                slot = s;
        }
        rec.slot = static_cast<int>(slot);
        rec.startTick = std::max(rec.formedTick, slotFreeAt_[slot]);
        rec.completionTick = rec.startTick + rec.serviceTicks;
        slotFreeAt_[slot] = rec.completionTick;
    }
}

ServerStats
InferenceServer::aggregate(const std::vector<RequestOutcome> &outcomes,
                           const std::vector<BatchRecord> &records)
{
    ServerStats stats;
    TenantStats &tot = stats.total;
    std::vector<double> latencies;

    for (const RequestOutcome &out : outcomes) {
        TenantStats &tenant = stats.perTenant[out.tenant];
        ++tenant.requests;
        ++tot.requests;
        if (!out.admitted) {
            if (out.shedReason == ShedReason::QueueFull) {
                ++tenant.shedQueueFull;
                ++tot.shedQueueFull;
            } else {
                ++tenant.shedTenantQuota;
                ++tot.shedTenantQuota;
            }
            continue;
        }
        ++tenant.admitted;
        ++tot.admitted;
        if (out.correct) {
            ++tenant.correct;
            ++tot.correct;
        }
        const Tick wait = out.queueWaitTicks();
        const Tick latency = out.latencyTicks();
        tenant.queueWaitTicksSum += wait;
        tot.queueWaitTicksSum += wait;
        tenant.latencyTicksSum += latency;
        tot.latencyTicksSum += latency;
        tenant.maxLatencyTicks = std::max(tenant.maxLatencyTicks, latency);
        tot.maxLatencyTicks = std::max(tot.maxLatencyTicks, latency);
        latencies.push_back(static_cast<double>(latency));
    }

    for (const BatchRecord &rec : records) {
        TenantStats &tenant = stats.perTenant[rec.tenant];
        ++tenant.batches;
        ++tot.batches;
        tenant.inferences += rec.size;
        tot.inferences += rec.size;
        tenant.retries += rec.resilience.retries;
        tot.retries += rec.resilience.retries;
        tenant.escalations += rec.resilience.escalations;
        tot.escalations += rec.resilience.escalations;
        tenant.quarantines += rec.resilience.quarantines;
        tot.quarantines += rec.resilience.quarantines;
        tenant.uncorrected += rec.resilience.uncorrected;
        tot.uncorrected += rec.resilience.uncorrected;
        const double pj = rec.modeledEnergy.value() * 1e12;
        tenant.energyPj += pj; // vblint: assoc-ok(serial aggregation in batch seq order)
        tot.energyPj += pj;    // vblint: assoc-ok(serial aggregation in batch seq order)
    }

    for (auto &[name, tenant] : stats.perTenant)
        tenant.finalVddStep = planner_.tenantStep(name);

    stats.meanBatchSize =
        tot.batches ? static_cast<double>(tot.inferences) /
                          static_cast<double>(tot.batches)
                    : 0.0;
    if (!latencies.empty()) {
        stats.p50LatencyTicks = percentile(latencies, 50.0);
        stats.p95LatencyTicks = percentile(latencies, 95.0);
    }
    stats.accuracy = tot.inferences
                         ? static_cast<double>(tot.correct) /
                               static_cast<double>(tot.inferences)
                         : 0.0;
    return stats;
}

ServeResult
InferenceServer::run(const std::vector<InferenceRequest> &trace)
{
    // Audited for VB002: this table is keyed-lookup only (emplace +
    // .at below) and is never iterated, so hash order cannot leak into
    // outcomes; unordered stays for O(1) lookups on the hot join path.
    std::unordered_map<std::uint64_t, std::size_t> id_to_index;
    id_to_index.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i > 0 && trace[i].arrivalTick < trace[i - 1].arrivalTick)
            fatal("InferenceServer::run: arrival ticks must be "
                  "nondecreasing (trace index ", i, ")");
        if (trace[i].sample >= pool_.size())
            fatal("InferenceServer::run: sample index ", trace[i].sample,
                  " outside the pool of ", pool_.size());
        if (!id_to_index.emplace(trace[i].id, i).second)
            fatal("InferenceServer::run: duplicate request id ",
                  trace[i].id);
    }

    ServeResult result;
    result.outcomes.resize(trace.size());
    std::vector<FormedBatch> formed;
    {
        // Phase timers run on the work-unit clock (requests, batches,
        // records): deterministic attribution, not wall time.
        std::optional<obs::ScopeTimer> form_timer;
        if (obs_) {
            form_timer.emplace(obs_->metrics, "serve.phase.form",
                               workClock_, withBase({}));
        }
        formed = formBatches(trace, result.outcomes);
        workClock_.advance(trace.size());
    }
    for (std::size_t k = 0; k < formed.size(); ++k) {
        if (formed[k].seq != k)
            panic("InferenceServer::run: batch sequence ", formed[k].seq,
                  " out of order at position ", k);
    }

    std::vector<BatchRecord> records(formed.size());
    const unsigned num_threads = ThreadPool::resolveThreads(cfg_.numThreads);
    if (scratch_.size() < num_threads)
        scratch_.resize(num_threads);

    // Epoch execution: plans freeze serially, batches run in parallel,
    // feedback applies serially in batch order — the planner never
    // observes a scheduling-dependent interleaving.
    {
        std::optional<obs::ScopeTimer> exec_timer;
        if (obs_) {
            exec_timer.emplace(obs_->metrics, "serve.phase.execute",
                               workClock_, withBase({}));
        }
        const auto interval =
            static_cast<std::size_t>(cfg_.feedbackInterval);
        for (std::size_t begin = 0; begin < formed.size();
             begin += interval) {
            const std::size_t end =
                std::min(begin + interval, formed.size());
            for (std::size_t k = begin; k < end; ++k) {
                records[k].seq = formed[k].seq;
                records[k].tenant = formed[k].tenant;
                records[k].slo = formed[k].slo;
                records[k].size = formed[k].requests.size();
                records[k].formedTick = formed[k].formedTick;
                records[k].plan =
                    planner_.planFor(formed[k].tenant, formed[k].slo);
            }
            parallelFor(end - begin, cfg_.numThreads,
                        // vblint: allow(VB009, batch i writes only records[begin+i]; scratch is slot-exclusive)
                        [&](std::size_t i, unsigned slot) {
                            executeBatch(formed[begin + i],
                                         records[begin + i],
                                         scratch_[slot]);
                        });
            for (std::size_t k = begin; k < end; ++k)
                planner_.observeErrorRate(records[k].tenant,
                                          records[k].errorRate);
            workClock_.advance(end - begin);
        }
    }

    assignSlots(records);

    for (const BatchRecord &rec : records) {
        const FormedBatch &batch = formed[rec.seq];
        for (std::size_t j = 0; j < batch.requests.size(); ++j) {
            RequestOutcome &out =
                result.outcomes[id_to_index.at(batch.requests[j].id)];
            out.batchSeq = rec.seq;
            out.predictedClass = rec.predictions[j];
            out.correct = rec.correct[j];
            out.formedTick = rec.formedTick;
            out.startTick = rec.startTick;
            out.completionTick = rec.completionTick;
            out.energyPj = rec.modeledEnergy.value() * 1e12 /
                           static_cast<double>(rec.size);
        }
    }

    {
        std::optional<obs::ScopeTimer> agg_timer;
        if (obs_) {
            agg_timer.emplace(obs_->metrics, "serve.phase.aggregate",
                              workClock_, withBase({}));
        }
        result.batches = std::move(records);
        result.stats = aggregate(result.outcomes, result.batches);
        workClock_.advance(result.batches.size());
    }
    publishObservability(result);
    return result;
}

void
InferenceServer::publishObservability(const ServeResult &result)
{
    if (!obs_)
        return;
    obs::MetricsRegistry &reg = obs_->metrics;
    obs::Tracer &tracer = obs_->trace;
    const obs::Labels base = withBase({});

    // Trace rows: one per virtual worker slot plus an admission row
    // for shed markers.
    for (int s = 0; s < cfg_.workerSlots; ++s) {
        tracer.setThreadName(obsPid_, static_cast<std::uint64_t>(s),
                             "slot " + std::to_string(s));
    }
    const auto admission_tid =
        static_cast<std::uint64_t>(cfg_.workerSlots);
    tracer.setThreadName(obsPid_, admission_tid, "admission");

    obs::Counter requests = reg.counter("serve.requests", base);
    obs::Counter admitted = reg.counter("serve.admitted", base);
    obs::Counter shed_queue_full =
        reg.counter("serve.shed", withBase({{"reason", "queue_full"}}));
    obs::Counter shed_tenant_quota =
        reg.counter("serve.shed", withBase({{"reason", "tenant_quota"}}));

    // Latency buckets: 16 us to ~134 s in powers of two, shared by the
    // end-to-end latency and the queue-wait component.
    const std::vector<double> latency_bounds =
        obs::exponentialBounds(16.0, 2.0, 24);
    std::vector<obs::Histogram> latency_hists;
    std::vector<obs::Histogram> wait_hists;
    for (int s = 0; s < kNumSloClasses; ++s) {
        const obs::Labels slo_labels =
            withBase({{"slo", toString(static_cast<SloClass>(s))}});
        latency_hists.push_back(reg.histogram("serve.latency.ticks",
                                              latency_bounds, slo_labels));
        wait_hists.push_back(reg.histogram("serve.queue.wait_ticks",
                                           latency_bounds, slo_labels));
    }

    for (const RequestOutcome &out : result.outcomes) {
        requests.add(1);
        if (!out.admitted) {
            if (out.shedReason == ShedReason::QueueFull) {
                shed_queue_full.add(1);
                tracer.instant(obsPid_, admission_tid, "shed.queue_full",
                               out.arrivalTick, {},
                               {{"tenant", out.tenant}});
            } else {
                shed_tenant_quota.add(1);
                tracer.instant(obsPid_, admission_tid, "shed.tenant_quota",
                               out.arrivalTick, {},
                               {{"tenant", out.tenant}});
            }
            continue;
        }
        admitted.add(1);
        const auto s = static_cast<std::size_t>(out.slo);
        latency_hists[s].observe(static_cast<double>(out.latencyTicks()));
        wait_hists[s].observe(static_cast<double>(out.queueWaitTicks()));
    }

    // Batch-level attribution, in formation (seq) order.
    const double max_batch =
        static_cast<double>(std::max(2, cfg_.batcher.maxBatchSize));
    obs::Histogram batch_size = reg.histogram(
        "serve.batch.size",
        obs::linearBounds(1.0, max_batch,
                          std::min(16, static_cast<int>(max_batch))),
        base);
    obs::Counter batches = reg.counter("serve.batches", base);
    obs::Counter retries = reg.counter("resil.retry.count", base);
    obs::Counter escalations = reg.counter("resil.escalation.count", base);
    obs::Counter quarantines = reg.counter("resil.quarantine.count", base);
    obs::Counter uncorrected = reg.counter("resil.uncorrected.count", base);
    obs::Counter residual_flips =
        reg.counter("serve.residual_flips", base);
    obs::Sum retry_energy = reg.sum("resil.retry.energy_j", base);
    obs::Histogram bank_boost = reg.histogram(
        "resil.bank.boost_energy_j", obs::exponentialBounds(1e-15, 10.0, 10),
        base);

    obs::EnergyScope sram_energy(reg, "serve.sram.energy_j", base);
    std::array<std::optional<obs::EnergyScope>, kNumSloClasses> slo_energy;
    for (int s = 0; s < kNumSloClasses; ++s) {
        slo_energy[static_cast<std::size_t>(s)].emplace(
            reg, "serve.energy_j",
            withBase({{"slo", toString(static_cast<SloClass>(s))}}));
    }

    for (const BatchRecord &rec : result.batches) {
        batches.add(1);
        batch_size.observe(static_cast<double>(rec.size));
        retries.add(rec.resilience.retries);
        escalations.add(rec.resilience.escalations);
        quarantines.add(rec.resilience.quarantines);
        uncorrected.add(rec.resilience.uncorrected);
        residual_flips.add(rec.residualFlips);
        retry_energy.add(rec.resilience.retryEnergy.value());
        sram_energy.add(rec.sramEnergy);
        slo_energy[static_cast<std::size_t>(rec.slo)]->add(
            rec.modeledEnergy);
        for (const double e : rec.bankBoostEnergyJ)
            bank_boost.observe(e);

        // Two spans per batch on the slot's trace row: the queue wait
        // and the execution window assigned by the FCFS post-pass.
        const auto tid = static_cast<std::uint64_t>(rec.slot);
        if (rec.startTick > rec.formedTick) {
            tracer.complete(obsPid_, tid, "wait", rec.formedTick,
                            rec.startTick - rec.formedTick, {},
                            {{"tenant", rec.tenant}});
        }
        tracer.complete(
            obsPid_, tid,
            rec.tenant + "/" + std::string(toString(rec.slo)),
            rec.startTick, rec.serviceTicks,
            {{"batch", static_cast<double>(rec.seq)},
             {"energy_pj", rec.modeledEnergy.value() * 1e12},
             {"requests", static_cast<double>(rec.size)},
             {"retries", static_cast<double>(rec.resilience.retries)}});
    }

    // Run-level gauges from the aggregate snapshot (reconcile with the
    // ServerStats the benches print).
    reg.gauge("serve.latency.p50_ticks", base)
        .set(result.stats.p50LatencyTicks);
    reg.gauge("serve.latency.p95_ticks", base)
        .set(result.stats.p95LatencyTicks);
    reg.gauge("serve.batch.mean_size", base)
        .set(result.stats.meanBatchSize);
    reg.gauge("serve.accuracy", base).set(result.stats.accuracy);
}

} // namespace vboost::serve
