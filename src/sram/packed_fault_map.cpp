#include "sram/packed_fault_map.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::sram {

namespace {

bool
avx2Available()
{
#if defined(VBOOST_HAVE_AVX2)
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#else
    return false;
#endif
}

} // namespace

PackedFaultMap::PackedFaultMap(const VulnerabilityMap &map,
                               std::uint64_t region_base,
                               std::uint64_t region_bits,
                               std::uint64_t start_bit,
                               std::uint64_t num_bits, double fail_prob)
    : numBits_(num_bits)
{
    if (region_bits == 0)
        fatal("PackedFaultMap: empty region");
    words_.assign((num_bits + 63) / 64, 0);
    pack(map, region_base, region_bits, start_bit, fail_prob);
}

PackedFaultMap::PackedFaultMap(const VulnerabilityMap &map,
                               std::uint64_t base_cell,
                               std::uint64_t num_bits, double fail_prob)
    : PackedFaultMap(map, base_cell,
                     num_bits == 0 ? 1 : num_bits, 0, num_bits, fail_prob)
{
}

void
PackedFaultMap::pack(const VulnerabilityMap &map, std::uint64_t region_base,
                     std::uint64_t region_bits, std::uint64_t start_bit,
                     double fail_prob)
{
    const StratumThresholds thr = map.stratumThresholds(fail_prob);
    if (thr.hi == 0 && thr.lo == 0)
        return; // no cell can be faulty; leave all bits clear
    // Hash the first lap only, split into at most two contiguous cell
    // runs (the SIMD kernel walks consecutive cells with an
    // incremental counter).
    const std::uint64_t lap = std::min(numBits_, region_bits);
    std::uint64_t j = 0;
    std::uint64_t offset = start_bit % region_bits;
    while (j < lap) {
        const std::uint64_t run = std::min(lap - j, region_bits - offset);
        packRun(map, thr, region_base + offset, run, j);
        j += run;
        offset = 0; // the second run restarts at the region base
    }
    // Visit j revisits visit j - region_bits's cell: copy the packed
    // bits forward a lap, at most region_bits at a time so the source
    // is always complete before it is read.
    while (j < numBits_) {
        const unsigned n = static_cast<unsigned>(std::min<std::uint64_t>(
            {64, region_bits, numBits_ - j}));
        deposit(mask(j - region_bits, n), j, n);
        j += n;
    }
}

void
PackedFaultMap::packRun(const VulnerabilityMap &map, StratumThresholds thr,
                        std::uint64_t cell, std::uint64_t count,
                        std::uint64_t bit_offset)
{
    DefectCursor defects(map, cell, count);
    const std::uint64_t key = map.streamKey();
    for (std::uint64_t done = 0; done < count;) {
        const unsigned chunk =
            static_cast<unsigned>(std::min<std::uint64_t>(64, count - done));
        deposit(faultMask(key, thr, defects.next(chunk), cell + done, chunk),
                bit_offset + done, chunk);
        done += chunk;
    }
}

std::uint64_t
faultMask(std::uint64_t stream_key, StratumThresholds thr,
          std::uint64_t defect, std::uint64_t cell, unsigned n)
{
    if (n == 64 && avx2Available())
        return packMask64Avx2(stream_key, thr.hi, thr.lo, defect, cell);
    std::uint64_t m = 0;
    for (unsigned b = 0; b < n; ++b) {
        const std::uint64_t t = (defect >> b) & 1u ? thr.hi : thr.lo;
        if (detail::cellHash(stream_key, cell + b) < t)
            m |= 1ull << b;
    }
    return m;
}

void
PackedFaultMap::deposit(std::uint64_t bits, std::uint64_t bit_offset,
                        unsigned nbits)
{
    if (nbits < 64)
        bits &= (1ull << nbits) - 1;
    const std::uint64_t w = bit_offset >> 6;
    const unsigned shift = static_cast<unsigned>(bit_offset & 63);
    words_[w] |= bits << shift;
    if (shift != 0 && shift + nbits > 64)
        words_[w + 1] |= bits >> (64 - shift);
}

std::uint64_t
PackedFaultMap::mask(std::uint64_t j, unsigned nbits) const
{
    if (nbits == 0 || nbits > 64)
        fatal("PackedFaultMap::mask: nbits must be in [1,64], got ", nbits);
    std::uint64_t out = 0;
    if (j < numBits_) {
        const std::uint64_t w = j >> 6;
        const unsigned shift = static_cast<unsigned>(j & 63);
        out = words_[w] >> shift;
        if (shift != 0 && w + 1 < words_.size())
            out |= words_[w + 1] << (64 - shift);
        // Clear bits past the packed range (the tail word may carry
        // garbage-free zeros already, but the straddle above can pull
        // in bits beyond numBits_ only when numBits_ % 64 != 0 and the
        // caller asks across the end; keep the contract explicit).
        if (numBits_ - j < 64 && nbits > numBits_ - j)
            out &= (1ull << (numBits_ - j)) - 1;
    }
    if (nbits < 64)
        out &= (1ull << nbits) - 1;
    return out;
}

std::uint64_t
PackedFaultMap::countFaulty() const
{
    std::uint64_t n = 0;
    for (std::uint64_t w : words_)
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

} // namespace vboost::sram
