#include "fi/fault_training.hpp"

#include "common/logging.hpp"

namespace vboost::fi {

void
FaultTrainConfig::validate() const
{
    if (failProb < 0.0 || failProb > 1.0)
        fatal("FaultTrainConfig: failProb must be in [0,1] (got ",
              failProb, ")");
    if (flipProb < 0.0 || flipProb > 1.0)
        fatal("FaultTrainConfig: flipProb must be in [0,1] (got ",
              flipProb, ")");
    if (warmupEpochs < 0)
        fatal("FaultTrainConfig: warmupEpochs must be >= 0 (got ",
              warmupEpochs, ")");
    base.validate();
}

std::uint64_t
FreshMapFaults::corrupt(dnn::Network &scratch, dnn::Network &clean,
                        int epoch, std::uint64_t batch) const
{
    const sram::VulnerabilityMap map(seed, batch);
    Rng flip_rng = Rng(seed).split(batch);
    auto spec = InjectionSpec::allWeights();
    spec.flipProb = flipProb;
    const double fail_prob = epoch < warmupEpochs ? 0.0 : failProb;
    return corruptNetwork(scratch, clean, map, fail_prob, spec, layout,
                          flip_rng);
}

FaultAwareTrainer::FaultAwareTrainer(FaultTrainConfig cfg) : cfg_(cfg)
{
    cfg_.validate();
}

std::vector<dnn::EpochStats>
FaultAwareTrainer::train(dnn::Network &net, dnn::Network &scratch,
                         const dnn::Dataset &train_set, Rng &rng)
{
    const FreshMapFaults faults{cfg_.seed, cfg_.failProb, cfg_.flipProb,
                                cfg_.warmupEpochs, cfg_.layout};
    // Straight-through: gradients from the corrupted forward pass
    // update the clean parameters.
    auto step = dnn::MinibatchStep::onNetwork(scratch, net);
    step.beforeBatch = [&](int epoch, std::uint64_t batch) {
        faults.corrupt(scratch, net, epoch, batch);
    };
    step.gradClip = static_cast<float>(cfg_.gradClip);
    step.weightClip = static_cast<float>(cfg_.weightClip);
    return dnn::trainMinibatches(cfg_.base, train_set, rng, step,
                                 "fault-aware ");
}

} // namespace vboost::fi
