#include "sram/ecc.hpp"

#include <array>
#include <bit>

namespace vboost::sram {

namespace {

/**
 * Hamming(72, 64) layout: codeword positions 1..71 hold the 64 data
 * bits at the non-power-of-two positions (3, 5, 6, 7, 9, ...) in
 * order, and check bit i at position 2^i. The syndrome of a codeword
 * is the XOR of the positions of its set bits, so syndrome bit i is
 * the parity of the set bits whose position has bit i set.
 */
constexpr int kPositions = 71;

constexpr bool
isCheckPos(int p)
{
    return (p & (p - 1)) == 0; // power of two
}

/** Codeword position of each data bit. */
constexpr std::array<int, 64>
dataPositions()
{
    std::array<int, 64> pos{};
    int bit = 0;
    for (int p = 1; p <= kPositions; ++p) {
        if (!isCheckPos(p))
            pos[static_cast<std::size_t>(bit++)] = p;
    }
    return pos;
}

constexpr std::array<int, 64> kDataPos = dataPositions();

/** Parity masks: bit b of kParityMask[i] is set iff data bit b sits
 *  at a codeword position with bit i set. */
constexpr std::array<std::uint64_t, 7>
parityMasks()
{
    std::array<std::uint64_t, 7> m{};
    for (int i = 0; i < 7; ++i) {
        for (int b = 0; b < 64; ++b) {
            if ((kDataPos[static_cast<std::size_t>(b)] >> i) & 1)
                m[static_cast<std::size_t>(i)] |= 1ull << b;
        }
    }
    return m;
}

constexpr std::array<std::uint64_t, 7> kParityMask = parityMasks();

/** Syndrome -> data-bit flip: the data bit at codeword position s, or
 *  0 when s names a check bit, the overall parity bit (s == 0) or no
 *  position at all (s > 71, an odd multi-bit error). */
constexpr std::array<std::uint64_t, 128>
syndromeFlips()
{
    std::array<std::uint64_t, 128> t{};
    for (int b = 0; b < 64; ++b)
        t[static_cast<std::size_t>(kDataPos[static_cast<std::size_t>(b)])] =
            1ull << b;
    return t;
}

constexpr std::array<std::uint64_t, 128> kSyndromeFlip = syndromeFlips();

/** The 7 Hamming check bits of a data word (its data-only syndrome). */
unsigned
hammingBits(std::uint64_t data)
{
    unsigned s = 0;
    for (int i = 0; i < 7; ++i)
        s |= static_cast<unsigned>(
                 std::popcount(data & kParityMask[static_cast<std::size_t>(i)]) &
                 1)
             << i;
    return s;
}

} // namespace

std::uint8_t
SecdedCodec::encode(std::uint64_t data)
{
    // Check bit i at position 2^i absorbs bit i of the data-only
    // syndrome, zeroing the full codeword's syndrome. The eighth bit
    // is the even overall parity of the 71-bit codeword.
    const unsigned hamming = hammingBits(data);
    // popcount(a) + popcount(b) and popcount(a ^ b) agree mod 2; the
    // latter's parity compiles to inline XORs, not two library calls.
    const unsigned parity = static_cast<unsigned>(
        std::popcount(data ^ static_cast<std::uint64_t>(hamming)) & 1);
    return static_cast<std::uint8_t>(hamming | (parity << 7));
}

EccDecodeResult
SecdedCodec::decode(std::uint64_t data, std::uint8_t check)
{
    const unsigned stored = check & 0x7fu;
    const unsigned s = hammingBits(data) ^ stored;
    const bool parity_ok =
        ((std::popcount(data) + std::popcount(stored)) & 1) ==
        ((check >> 7) & 1);

    EccDecodeResult result;
    result.data = data;
    if (s == 0 && parity_ok) {
        result.outcome = EccOutcome::Clean;
    } else if (!parity_ok) {
        // Odd number of errors; assume one and correct it. s == 0
        // means the overall parity bit itself flipped.
        result.data = data ^ kSyndromeFlip[s];
        result.outcome = EccOutcome::Corrected;
    } else {
        // Syndrome non-zero with even parity: double error detected.
        result.outcome = EccOutcome::DetectedUncorrectable;
    }
    return result;
}

} // namespace vboost::sram
