#include "common/fixed_point.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace vboost {

FixedPointCodec::FixedPointCodec(int frac_bits) : fracBits_(frac_bits)
{
    if (frac_bits < 0 || frac_bits > 15)
        fatal("FixedPointCodec: fracBits must be in [0,15], got ", frac_bits);
    scale_ = std::ldexp(1.0f, frac_bits);
}

std::int16_t
FixedPointCodec::encode(float x) const
{
    const float scaled = std::nearbyint(x * scale_);
    if (scaled >= 32767.0f)
        return 32767;
    if (scaled <= -32768.0f)
        return -32768;
    // Both compares are false for NaN, whose int conversion would be
    // undefined.
    if (std::isnan(scaled))
        return 0;
    return static_cast<std::int16_t>(scaled);
}

float
FixedPointCodec::decode(std::int16_t raw) const
{
    return static_cast<float>(raw) / scale_;
}

float
FixedPointCodec::maxValue() const
{
    return 32767.0f / scale_;
}

float
FixedPointCodec::minValue() const
{
    return -32768.0f / scale_;
}

std::int16_t
FixedPointCodec::flipBit(std::int16_t raw, int bit)
{
    if (bit < 0 || bit > 15)
        panic("FixedPointCodec::flipBit: bit ", bit, " out of range");
    const auto u = static_cast<std::uint16_t>(raw);
    return static_cast<std::int16_t>(u ^ (1u << bit));
}

} // namespace vboost
