#include "dnn/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"

namespace vboost::dnn {

FixedPointCodec
chooseCodec(const Tensor &t)
{
    const float max_abs = t.maxAbs();
    // Smallest number of integer bits whose range covers max_abs; no
    // wasted headroom bits (a flip in an unused top bit would be a
    // disproportionately large perturbation).
    int int_bits = 0;
    float range = 1.0f;
    while (range < max_abs && int_bits < 15) {
        range *= 2.0f;
        ++int_bits;
    }
    return FixedPointCodec(15 - int_bits);
}

QuantizedTensor
quantize(const Tensor &t)
{
    return quantize(t, chooseCodec(t));
}

QuantizedTensor
quantize(const Tensor &t, const FixedPointCodec &codec)
{
    if (t.numel() == 0)
        fatal("quantize: empty tensor");
    QuantizedTensor q{std::vector<std::int16_t>(t.numel()), codec,
                      t.shape()};
    activeBackend().quantize(t.data(), q.words.data(), t.numel(), codec);
    return q;
}

Tensor
dequantize(const QuantizedTensor &q)
{
    Tensor t(q.shape);
    activeBackend().dequantize(q.words.data(), t.data(), q.words.size(),
                               q.codec);
    return t;
}

Tensor
quantizeRoundTrip(const Tensor &t)
{
    return dequantize(quantize(t));
}

void
clipParameters(Network &net, float limit)
{
    if (limit <= 0.0f)
        fatal("clipParameters: limit must be positive");
    for (auto &p : net.params()) {
        for (std::size_t i = 0; i < p.value->numel(); ++i) {
            float &v = (*p.value)[i];
            v = std::clamp(v, -limit, limit);
        }
    }
}

} // namespace vboost::dnn
