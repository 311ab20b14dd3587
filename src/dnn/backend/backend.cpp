#include "dnn/backend/backend.hpp"

#include <atomic>
#include <cmath>

#include "dnn/backend/impl.hpp"

namespace vboost::dnn {

std::vector<std::string_view>
availableBackends()
{
    std::vector<std::string_view> names{referenceBackend().name()};
    if (const Backend *v = detail::vectorizedBackendIfAvailable())
        names.push_back(v->name());
    return names;
}

const Backend *
findBackend(std::string_view name)
{
    if (name == "auto") {
        // Fastest available: the vectorized backend is bitwise-equal
        // to the reference, so preferring it never changes results.
        if (const Backend *v = detail::vectorizedBackendIfAvailable())
            return v;
        return &referenceBackend();
    }
    if (name == "reference")
        return &referenceBackend();
    if (name == "vectorized")
        return detail::vectorizedBackendIfAvailable();
    return nullptr;
}

namespace {

std::atomic<const Backend *> &
activeSlot()
{
    // Process-wide backend selection. Mutable global state is accepted
    // here under the set-before-threads contract: selection happens at
    // startup (flag parsing) before any worker pool exists, and every
    // backend is bitwise-identical anyway, so even a mid-run swap
    // could not change results — only speed.
    static std::atomic<const Backend *> slot{findBackend("auto")};
    return slot;
}

} // namespace

const Backend &
activeBackend()
{
    return *activeSlot().load(std::memory_order_acquire);
}

bool
setActiveBackend(std::string_view name)
{
    const Backend *b = findBackend(name);
    if (b == nullptr)
        return false;
    activeSlot().store(b, std::memory_order_release);
    return true;
}

std::string_view
autoIsaTier()
{
    if (detail::vectorizedBackendIfAvailable() == nullptr)
        return "scalar";
    return detail::avx512GemmAvailable() ? "avx512" : "avx2";
}

namespace detail {

std::vector<std::size_t>
negativeZeroSeeds(const float *c, std::size_t count)
{
    std::vector<std::size_t> seeds;
    for (std::size_t e = 0; e < count; ++e)
        if (c[e] == 0.0f && std::signbit(c[e]))
            seeds.push_back(e);
    return seeds;
}

void
replayZeroSkipChains(const std::vector<std::size_t> &seeds, const float *a,
                     const float *b, float *c, int k, int n)
{
    const auto un = static_cast<std::size_t>(n);
    for (const std::size_t e : seeds) {
        const float *arow = a + e / un * static_cast<std::size_t>(k);
        const float *bcol = b + e % un;
        float acc = -0.0f; // the recorded seed
        for (int kk = 0; kk < k; ++kk) {
            if (arow[kk] == 0.0f)
                continue;
            // vblint: assoc-ok(the reference gemm's ascending-k chain, replayed)
            acc += arow[kk] * bcol[static_cast<std::size_t>(kk) * un];
        }
        c[e] = acc;
    }
}

} // namespace detail

} // namespace vboost::dnn
