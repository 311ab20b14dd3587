#include "recovery/map_aware_trainer.hpp"

#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "recovery/recovery.hpp"

namespace vboost::recovery {

void
MapAwareConfig::validate() const
{
    train.validate();
    if (refreshInterval < 0)
        fatal("MapAwareConfig: refreshInterval must be >= 0 (got ",
              refreshInterval, ")");
    if (curriculumEpochs < 0)
        fatal("MapAwareConfig: curriculumEpochs must be >= 0 (got ",
              curriculumEpochs, ")");
    if (curriculumStartScale <= 0.0 || curriculumStartScale > 1.0)
        fatal("MapAwareConfig: curriculumStartScale must be in (0,1] "
              "(got ", curriculumStartScale, ")");
    if (mapModel == sram::MapModel::Clustered)
        cluster.validate();
}

std::uint64_t
MapAwareStats::digest() const
{
    std::uint64_t h = kFnvOffset;
    for (const auto &e : epochs) {
        fnvDouble(h, e.meanLoss);
        fnvDouble(h, e.trainAccuracy);
    }
    fnvWord(h, batches);
    fnvWord(h, mapRefreshes);
    fnvWord(h, bitFlips);
    fnvDouble(h, finalInjectedProb);
    return h;
}

MapAwareTrainer::MapAwareTrainer(MapAwareConfig cfg)
    : cfg_(std::move(cfg)),
      map_(cfg_.chipSeed, cfg_.chipMapIndex, cfg_.mapModel,
           cfg_.cluster)
{
    cfg_.validate();
}

void
MapAwareTrainer::attachObservability(obs::Observability *o,
                                     obs::Labels labels)
{
    obs_ = o;
    labels_ = std::move(labels);
}

double
MapAwareTrainer::curriculumProb(int epoch) const
{
    const int k = epoch - cfg_.train.warmupEpochs;
    if (k < 0)
        return 0.0;
    if (cfg_.curriculumEpochs <= 0 || k >= cfg_.curriculumEpochs)
        return cfg_.train.failProb;
    // Geometric ramp: startScale * failProb at k = 0, failProb once
    // the curriculum completes — MATIC's staged supply lowering.
    const double t =
        static_cast<double>(k) /
        static_cast<double>(cfg_.curriculumEpochs);
    return cfg_.train.failProb *
           std::pow(cfg_.curriculumStartScale, 1.0 - t);
}

MapAwareStats
MapAwareTrainer::train(dnn::Network &net, dnn::Network &scratch,
                       const dnn::Dataset &train_set, Rng &rng)
{
    auto spec = fi::InjectionSpec::allWeights();
    spec.flipProb = cfg_.train.flipProb;

    MapAwareStats stats;
    // The injected rate is frozen at its last profiled value and only
    // re-snapped to the curriculum at refresh points: training between
    // refreshes runs against a stale profile, like the hardware flow.
    double injected_prob = 0.0;
    bool profiled = false;
    int since_refresh = 0;
    // Straight-through: corrupted-forward gradients update the clean
    // parameters, clamped and projected exactly as in
    // fi::FaultAwareTrainer.
    auto step = dnn::MinibatchStep::onNetwork(scratch, net);
    step.beforeBatch = [&](int epoch, std::uint64_t batch) {
        const bool injecting = epoch >= cfg_.train.warmupEpochs;
        if (injecting) {
            const bool due = !profiled ||
                             (cfg_.refreshInterval > 0 &&
                              since_refresh >= cfg_.refreshInterval);
            if (due) {
                injected_prob = curriculumProb(epoch);
                profiled = true;
                since_refresh = 0;
                ++stats.mapRefreshes;
            } else {
                ++since_refresh;
            }
        }
        const double fail_prob = injecting ? injected_prob : 0.0;

        // The chip map is FROZEN; only the per-read flip stream is
        // counter-derived per batch.
        Rng flip_rng = Rng(cfg_.train.seed).split(batch);
        stats.bitFlips += corruptNetwork(scratch, net, map_, fail_prob,
                                         spec, cfg_.train.layout,
                                         flip_rng);
        stats.finalInjectedProb = fail_prob;
        ++stats.batches;
    };
    step.gradClip = static_cast<float>(cfg_.train.gradClip);
    step.weightClip = static_cast<float>(cfg_.train.weightClip);
    stats.epochs = dnn::trainMinibatches(cfg_.train.base, train_set, rng,
                                         step, "map-aware ");

    if (obs_ != nullptr) {
        obs_->metrics.counter("recovery.matic.batches", labels_)
            .add(stats.batches);
        obs_->metrics.counter("recovery.matic.map_refreshes", labels_)
            .add(stats.mapRefreshes);
        obs_->metrics.counter("recovery.matic.bit_flips", labels_)
            .add(stats.bitFlips);
        obs_->metrics
            .gauge("recovery.matic.final_injected_prob", labels_)
            .set(stats.finalInjectedProb);
        if (!stats.epochs.empty()) {
            obs_->metrics.gauge("recovery.matic.final_loss", labels_)
                .set(stats.epochs.back().meanLoss);
            obs_->metrics
                .gauge("recovery.matic.final_train_accuracy", labels_)
                .set(stats.epochs.back().trainAccuracy);
        }
    }
    return stats;
}

} // namespace vboost::recovery
