/**
 * @file
 * The byte-wise FNV-1a fold behind every digest and fingerprint of the
 * code base (stats fingerprints, trace and metrics fingerprints, ring
 * fingerprints, weight digests, replay digests). Callers fix what they
 * fold and in which order; these helpers fix only how bytes fold.
 */

#ifndef VBOOST_COMMON_FNV_HPP
#define VBOOST_COMMON_FNV_HPP

#include <bit>
#include <cstdint>
#include <string_view>

namespace vboost {

/** Offset basis of the committed digests: the published FNV-1a basis
 *  14695981039346656037 with its last decimal digit dropped. Every
 *  committed fingerprint starts from it, so it stays. The timing
 *  replay digests start from the published basis instead. */
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
/** The 64-bit FNV prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Fold one byte into `h`. */
constexpr void
fnvByte(std::uint64_t &h, unsigned char byte)
{
    h ^= byte;
    h *= kFnvPrime;
}

/** Fold the low `bytes` bytes of `v` into `h`, least significant
 *  first (all eight by default). */
constexpr void
fnvWord(std::uint64_t &h, std::uint64_t v, int bytes = 8)
{
    for (int i = 0; i < bytes; ++i)
        fnvByte(h, static_cast<unsigned char>(v >> (8 * i)));
}

/** Fold a double's raw bits into `h` as one eight-byte word. */
constexpr void
fnvDouble(std::uint64_t &h, double v)
{
    fnvWord(h, std::bit_cast<std::uint64_t>(v));
}

/** Fold the bytes of `s` into `h` (no length). */
constexpr void
fnvBytes(std::uint64_t &h, std::string_view s)
{
    for (const char c : s)
        fnvByte(h, static_cast<unsigned char>(c));
}

} // namespace vboost

#endif // VBOOST_COMMON_FNV_HPP
