/**
 * @file
 * Minibatch SGD trainer with momentum for the from-scratch DNN engine.
 * Training happens at full float precision; quantization to the
 * accelerator's int16 storage format is a separate post-training step
 * (see dnn/quantize.hpp), matching the paper's flow where networks are
 * trained offline and deployed to the accelerator's SRAM.
 *
 * trainMinibatches() is the one minibatch loop of the repository.
 * SgdTrainer runs it on clean weights; fi::FaultAwareTrainer,
 * recovery::MapAwareTrainer and recovery::TransformTrainer run it with
 * a MinibatchStep that corrupts a scratch copy of the weights before
 * each batch.
 */

#ifndef VBOOST_DNN_TRAINER_HPP
#define VBOOST_DNN_TRAINER_HPP

#include <cstdint>
#include <functional>
#include <string_view>

#include "dnn/dataset.hpp"
#include "dnn/network.hpp"

namespace vboost::dnn {

/** Trainer configuration. */
struct TrainConfig
{
    int epochs = 6;
    int batchSize = 64;
    double learningRate = 0.1;
    double momentum = 0.9;
    /** Learning-rate decay multiplier applied after each epoch. */
    double lrDecay = 0.85;
    /** Print per-epoch progress via inform(). */
    bool verbose = false;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/** Per-epoch training record. */
struct EpochStats
{
    double meanLoss = 0.0;
    double trainAccuracy = 0.0;
};

/**
 * What a trainer plugs into trainMinibatches(): the step before each
 * batch, which network runs forward and backward, and which
 * parameters take the update from which gradients.
 */
struct MinibatchStep
{
    /** Runs before each batch with its epoch and its running batch
     *  index over the whole run (e.g. to corrupt the scratch weights).
     *  Optional. */
    std::function<void(int epoch, std::uint64_t batch)> beforeBatch;
    /** Zeroes the gradients, then runs the training forward pass from
     *  the batch images to the logits. */
    std::function<Tensor(const Tensor &images)> forward;
    /** Backward pass from dL/d(logits). */
    std::function<void(const Tensor &grad)> backward;
    /** Parameters that take the momentum update. */
    std::vector<ParamRef> params;
    /** grads[p].grad is the gradient params[p] is updated from. */
    std::vector<ParamRef> grads;
    /** Element-wise gradient clamp (0 = off). */
    float gradClip = 0.0f;
    /** Weight clamp applied after each update (0 = off). */
    float weightClip = 0.0f;

    /** Forward and backward through `run`; update `update`'s
     *  parameters from `run`'s gradients. They are the same network
     *  for plain SGD and a corrupted scratch copy for straight-through
     *  training. */
    static MinibatchStep onNetwork(Network &run, Network &update);
};

/**
 * The minibatch SGD loop: per epoch a Fisher-Yates shuffle of the
 * sample order, then per batch the gather, step.beforeBatch, the
 * training forward pass, softmax cross-entropy, the backward pass, the
 * argmax hit count and the momentum update; learning-rate decay after
 * each epoch.
 *
 * @param cfg SGD configuration (validated by the caller).
 * @param train_set training data.
 * @param rng shuffling randomness.
 * @param step the trainer-specific part of each batch.
 * @param name progress-line prefix under cfg.verbose.
 * @return per-epoch loss/accuracy.
 */
std::vector<EpochStats> trainMinibatches(const TrainConfig &cfg,
                                         const Dataset &train_set,
                                         Rng &rng,
                                         const MinibatchStep &step,
                                         std::string_view name);

/** Minibatch SGD with classical momentum. */
class SgdTrainer
{
  public:
    explicit SgdTrainer(TrainConfig cfg = {});

    /**
     * Train the network in place.
     *
     * @param net network to train.
     * @param train_set training data.
     * @param rng shuffling randomness.
     * @return per-epoch loss/accuracy.
     */
    std::vector<EpochStats> train(Network &net, const Dataset &train_set,
                                  Rng &rng);

    /**
     * Top-1 accuracy of `net` on `test_set`, evaluated in batches.
     *
     * @param max_samples cap on evaluated samples (0 = all).
     */
    static double evaluate(Network &net, const Dataset &test_set,
                           std::size_t max_samples = 0);

    const TrainConfig &config() const { return cfg_; }

  private:
    TrainConfig cfg_;
};

} // namespace vboost::dnn

#endif // VBOOST_DNN_TRAINER_HPP
