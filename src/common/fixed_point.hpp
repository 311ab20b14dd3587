/**
 * @file
 * Q-format fixed-point codec used to model how the accelerator stores
 * weights and activations in SRAM. The fault model flips bits of these
 * 16-bit words; the inference engine dequantizes the (possibly
 * corrupted) words back to float. Two's-complement with saturation on
 * encode, exactly as a hardware quantizer behaves.
 */

#ifndef VBOOST_COMMON_FIXED_POINT_HPP
#define VBOOST_COMMON_FIXED_POINT_HPP

#include <cstdint>

namespace vboost {

/**
 * 16-bit two's-complement Q-format codec with a configurable number of
 * fractional bits. For fracBits = f the representable range is
 * [-2^(15-f), 2^(15-f) - 2^-f] with resolution 2^-f.
 */
class FixedPointCodec
{
  public:
    /** @param frac_bits fractional bits, in [0, 15]. */
    explicit FixedPointCodec(int frac_bits);

    /** Encode with round-to-nearest (ties to even, the default
     *  rounding mode) and saturation to [-32768, 32767]. NaN, which
     *  has no nearest word, encodes to 0. */
    std::int16_t encode(float x) const;

    /** Decode a raw word back to float. */
    float decode(std::int16_t raw) const;

    /** Largest representable value. */
    float maxValue() const;

    /** Smallest (most negative) representable value. */
    float minValue() const;

    /** Quantization step 2^-fracBits. */
    float resolution() const { return 1.0f / scale_; }

    /** Number of fractional bits. */
    int fracBits() const { return fracBits_; }

    /**
     * Flip bit `bit` (0 = LSB, 15 = sign) of a raw word. This is the
     * primitive the SRAM fault model applies on a faulty read.
     */
    static std::int16_t flipBit(std::int16_t raw, int bit);

  private:
    int fracBits_;
    float scale_;
};

} // namespace vboost

#endif // VBOOST_COMMON_FIXED_POINT_HPP
