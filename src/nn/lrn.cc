#include "nn/lrn.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"

namespace insitu {

LocalResponseNorm::LocalResponseNorm(std::string name, int64_t size,
                                     double alpha, double beta,
                                     double k)
    : size_(size), alpha_(alpha), beta_(beta), k_(k)
{
    INSITU_CHECK(size > 0 && alpha > 0 && beta > 0 && k > 0,
                 "invalid LRN parameters");
    set_name(std::move(name));
}

Tensor
LocalResponseNorm::forward(const Tensor& input, bool /*training*/)
{
    if (!cached_scale_.same_shape(input))
        cached_scale_ = Tensor::uninitialized(input.shape());
    Tensor out = run(input, cached_scale_.data());
    cached_input_ = input;
    return out;
}

Tensor
LocalResponseNorm::infer(const Tensor& input) const
{
    return run(input, nullptr);
}

Tensor
LocalResponseNorm::run(const Tensor& input, float* s) const
{
    INSITU_CHECK(input.rank() == 4, "LRN expects NCHW input");
    const int64_t b = input.dim(0), c = input.dim(1);
    const int64_t hw = input.dim(2) * input.dim(3);
    Tensor out = Tensor::uninitialized(input.shape());
    const float* x = input.data();
    float* y = out.data();
    const int64_t half = size_ / 2;
    const double coeff = alpha_ / static_cast<double>(size_);
    // Batch-parallel: every image's normalization window stays within
    // its own channel stack, so images are independent.
    parallel_for(0, b, 1, [&](int64_t n0, int64_t n1) {
        for (int64_t n = n0; n < n1; ++n) {
            for (int64_t i = 0; i < c; ++i) {
                const int64_t lo = std::max<int64_t>(0, i - half);
                const int64_t hi = std::min<int64_t>(c - 1, i + half);
                for (int64_t p = 0; p < hw; ++p) {
                    double sum = 0.0;
                    for (int64_t j = lo; j <= hi; ++j) {
                        const double v = x[(n * c + j) * hw + p];
                        sum += v * v;
                    }
                    const int64_t idx = (n * c + i) * hw + p;
                    const double scale = k_ + coeff * sum;
                    if (s != nullptr) s[idx] = static_cast<float>(scale);
                    y[idx] = static_cast<float>(
                        x[idx] * std::pow(scale, -beta_));
                }
            }
        }
    });
    return out;
}

Tensor
LocalResponseNorm::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_input_.empty(), "LRN backward before forward");
    INSITU_CHECK(grad_output.same_shape(cached_input_),
                 "LRN grad shape mismatch");
    const int64_t b = cached_input_.dim(0), c = cached_input_.dim(1);
    const int64_t hw = cached_input_.dim(2) * cached_input_.dim(3);
    Tensor grad_input(cached_input_.shape());
    const float* x = cached_input_.data();
    const float* s = cached_scale_.data();
    const float* g = grad_output.data();
    float* gi = grad_input.data();
    const int64_t half = size_ / 2;
    const double coeff = alpha_ / static_cast<double>(size_);
    // dx_j = g_j * s_j^-b - 2*coeff*b * x_j *
    //        sum_{i: j in window(i)} g_i * x_i * s_i^{-b-1}
    parallel_for(0, b, 1, [&](int64_t n0, int64_t n1) {
        for (int64_t n = n0; n < n1; ++n) {
            for (int64_t p = 0; p < hw; ++p) {
                for (int64_t j = 0; j < c; ++j) {
                    const int64_t jdx = (n * c + j) * hw + p;
                    double acc =
                        g[jdx] * std::pow(static_cast<double>(s[jdx]),
                                          -beta_);
                    const int64_t lo = std::max<int64_t>(0, j - half);
                    const int64_t hi =
                        std::min<int64_t>(c - 1, j + half);
                    double cross = 0.0;
                    for (int64_t i = lo; i <= hi; ++i) {
                        const int64_t idx = (n * c + i) * hw + p;
                        cross += g[idx] * x[idx] *
                                 std::pow(static_cast<double>(s[idx]),
                                          -beta_ - 1.0);
                    }
                    acc -= 2.0 * coeff * beta_ * x[jdx] * cross;
                    gi[jdx] = static_cast<float>(acc);
                }
            }
        }
    });
    return grad_input;
}

std::string
LocalResponseNorm::describe() const
{
    std::ostringstream oss;
    oss << "lrn n" << size_ << " a" << alpha_ << " b" << beta_ << " k"
        << k_;
    return oss.str();
}

} // namespace insitu
