#include "dnn/tensor.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"

namespace vboost::dnn {

namespace {

std::size_t
shapeNumel(const std::vector<int> &shape)
{
    std::size_t n = 1;
    for (int d : shape) {
        if (d <= 0)
            fatal("Tensor: dimensions must be positive, got ", d);
        n *= static_cast<std::size_t>(d);
    }
    return n;
}

} // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape))
{
    if (shape_.empty() || shape_.size() > 4)
        fatal("Tensor: rank must be 1..4, got ", shape_.size());
    data_.assign(shapeNumel(shape_), 0.0f);
}

Tensor
Tensor::zeros(std::vector<int> shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::uninitialized(std::vector<int> shape)
{
    Tensor t;
    t.shape_ = std::move(shape);
    if (t.shape_.empty() || t.shape_.size() > 4)
        fatal("Tensor: rank must be 1..4, got ", t.shape_.size());
    // resize() default-initializes through NoInitAlloc: no zero-fill.
    t.data_.resize(shapeNumel(t.shape_));
    return t;
}

Tensor
Tensor::randn(std::vector<int> shape, Rng &rng, double stddev)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

int
Tensor::dim(int d) const
{
    if (d < 0 || d >= rank())
        fatal("Tensor::dim: dimension ", d, " out of rank ", rank());
    return shape_[static_cast<std::size_t>(d)];
}

float &
Tensor::at(int i, int j)
{
    return data_[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(j)];
}

float
Tensor::at(int i, int j) const
{
    return data_[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(j)];
}

float &
Tensor::at(int n, int c, int h, int w)
{
    const auto [N, C, H, W] =
        std::tuple{shape_[0], shape_[1], shape_[2], shape_[3]};
    (void)N;
    return data_[((static_cast<std::size_t>(n) * C + c) * H + h) * W + w];
}

float
Tensor::at(int n, int c, int h, int w) const
{
    const auto [N, C, H, W] =
        std::tuple{shape_[0], shape_[1], shape_[2], shape_[3]};
    (void)N;
    return data_[((static_cast<std::size_t>(n) * C + c) * H + h) * W + w];
}

Tensor
Tensor::reshaped(std::vector<int> new_shape) const
{
    if (shapeNumel(new_shape) != numel())
        fatal("Tensor::reshaped: element count mismatch (", numel(),
              " != ", shapeNumel(new_shape), ")");
    Tensor t(std::move(new_shape));
    t.data_ = data_;
    return t;
}

void
Tensor::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

float
Tensor::maxAbs() const
{
    return activeBackend().maxAbs(data_.data(), data_.size());
}

std::string
Tensor::shapeString() const
{
    std::ostringstream oss;
    oss << '[';
    for (std::size_t i = 0; i < shape_.size(); ++i)
        oss << shape_[i] << (i + 1 == shape_.size() ? "" : ", ");
    oss << ']';
    return oss.str();
}

void
gemm(const float *a, const float *b, float *c, int m, int k, int n,
     bool accumulate)
{
    if (!accumulate)
        std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) *
                              static_cast<std::size_t>(n));
    // i-k-j order: the inner loop is contiguous in both B and C, which
    // the compiler vectorizes.
    for (int i = 0; i < m; ++i) {
        const float *arow = a + static_cast<std::size_t>(i) * k;
        float *crow = c + static_cast<std::size_t>(i) * n;
        for (int kk = 0; kk < k; ++kk) {
            const float aik = arow[kk];
            if (aik == 0.0f)
                continue;
            const float *brow = b + static_cast<std::size_t>(kk) * n;
            for (int j = 0; j < n; ++j)
                // vblint: assoc-ok(k advances in fixed index order)
                crow[j] += aik * brow[j];
        }
    }
}

} // namespace vboost::dnn
