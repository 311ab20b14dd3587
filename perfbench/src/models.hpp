/**
 * @file
 * The benchmark's trained models. A one-off preparation step trains
 * them (untimed, never inside a workload run) with the same recipe as
 * the repo's figure benches and saves them under the model directory.
 * Every workload set-up loads them and checks their weight digest
 * against the expected one: a missing or stale file is a hard error
 * naming both digests, never a silent retrain.
 */

#ifndef VBB_MODELS_HPP
#define VBB_MODELS_HPP

#include <cstdint>
#include <string>

#include "dnn/network.hpp"

namespace vbb {

/** Model names: the paper's FC-DNN and the 5-conv AlexNet-for-CIFAR. */
inline constexpr const char *kMnistFc = "mnist_fc";
inline constexpr const char *kAlexNet = "alexnet_cifar";

/** Train both models, save them to `dir` and print their digests. */
void prepareModels(const std::string &dir);

/**
 * Load model `name` from `dir` and check recovery::weightsDigest
 * against `expected` (throws FatalError on a missing file, a load
 * failure or a digest mismatch).
 */
vboost::dnn::Network loadModel(const std::string &dir,
                               const std::string &name,
                               std::uint64_t expected);

} // namespace vbb

#endif // VBB_MODELS_HPP
