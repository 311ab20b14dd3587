#include "models.hpp"

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "dnn/dataset.hpp"
#include "dnn/quantize.hpp"
#include "dnn/serialize.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"
#include "recovery/recovery.hpp"

namespace vbb {

using namespace vboost;

namespace {

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
modelPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".bin";
}

/** Untrained network of model `name` (fixed initialization seed). */
dnn::Network
buildModel(const std::string &name)
{
    Rng rng(7);
    if (name == kMnistFc)
        return dnn::buildMnistFc(rng);
    if (name == kAlexNet)
        return dnn::buildAlexNetCifar(rng);
    fatal("unknown model '", name, "'");
}

} // namespace

void
prepareModels(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    // The figure benches' recipe (bench/bench_util.cpp): the FC-DNN on
    // 4000 synthetic MNIST digits for 6 epochs, AlexNet on 1500
    // synthetic CIFAR images for 3 epochs, both clipped to +-0.5 for
    // int16 deployment.
    struct Recipe
    {
        const char *name;
        int samples;
        int epochs;
        double lr;
    };
    const dnn::TrainConfig defaults;
    const Recipe recipes[] = {{kMnistFc, 4000, 6, defaults.learningRate},
                              {kAlexNet, 1500, 3, 0.05}};
    for (const Recipe &r : recipes) {
        dnn::Network net = buildModel(r.name);
        const dnn::Dataset train =
            std::string(r.name) == kMnistFc
                ? dnn::makeSyntheticMnist(r.samples, 1)
                : dnn::makeSyntheticCifar(r.samples, 1);
        dnn::TrainConfig cfg;
        cfg.epochs = r.epochs;
        cfg.learningRate = r.lr;
        Rng rng(2024);
        dnn::SgdTrainer(cfg).train(net, train, rng);
        dnn::clipParameters(net, 0.5f);
        dnn::saveParameters(net, modelPath(dir, r.name));
        std::cout << "prepared " << r.name << " digest "
                  << hex(recovery::weightsDigest(net)) << std::endl;
    }
}

dnn::Network
loadModel(const std::string &dir, const std::string &name,
          std::uint64_t expected)
{
    const std::string path = modelPath(dir, name);
    if (!std::filesystem::exists(path))
        fatal("prepared model ", path, " is missing (expected digest ",
              hex(expected), "); prepare it first, it is never trained "
              "inside a workload run");
    dnn::Network net = buildModel(name);
    if (!dnn::loadParameters(net, path))
        fatal("prepared model ", path, " does not load (expected "
              "digest ", hex(expected), ")");
    const std::uint64_t got = recovery::weightsDigest(net);
    if (got != expected)
        fatal("prepared model ", path, " is stale: digest ", hex(got),
              " != expected ", hex(expected),
              "; delete it and prepare again");
    return net;
}

} // namespace vbb
