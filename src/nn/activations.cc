#include "nn/activations.h"

#include <cmath>

#include "util/logging.h"

namespace insitu {

namespace {

/**
 * The one ReLU kernel, shared by forward() and infer(): a select, not
 * a branch, so it vectorizes and never mispredicts. `x > 0` is false
 * for NaN and -0, so both map to +0. A non-null @p mask also receives
 * the 0/1 backward mask in the same pass.
 */
void
relu_kernel(const float* x, float* out, float* mask, int64_t n)
{
    if (mask == nullptr) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = x[i] > 0.0f ? x[i] : 0.0f;
        return;
    }
    for (int64_t i = 0; i < n; ++i) {
        const bool pos = x[i] > 0.0f;
        out[i] = pos ? x[i] : 0.0f;
        mask[i] = pos ? 1.0f : 0.0f;
    }
}

} // namespace

Tensor
ReLU::forward(const Tensor& input, bool /*training*/)
{
    // Every slot is rewritten, so a same-shape mask is reused as is.
    if (!mask_.same_shape(input))
        mask_ = Tensor::uninitialized(input.shape());
    Tensor out = Tensor::uninitialized(input.shape());
    relu_kernel(input.data(), out.data(), mask_.data(), input.numel());
    return out;
}

Tensor
ReLU::infer(const Tensor& input) const
{
    Tensor out = Tensor::uninitialized(input.shape());
    relu_kernel(input.data(), out.data(), nullptr, input.numel());
    return out;
}

Tensor
ReLU::backward(const Tensor& grad_output)
{
    INSITU_CHECK(grad_output.same_shape(mask_),
                 "relu backward shape mismatch");
    Tensor out = grad_output;
    float* po = out.data();
    const float* pm = mask_.data();
    for (int64_t i = 0; i < out.numel(); ++i) po[i] *= pm[i];
    return out;
}

Tensor
Flatten::forward(const Tensor& input, bool /*training*/)
{
    Tensor out = infer(input);
    cached_shape_ = input.shape();
    return out;
}

Tensor
Flatten::infer(const Tensor& input) const
{
    INSITU_CHECK(input.rank() >= 2, "flatten needs rank >= 2");
    return input.reshape({input.dim(0), -1});
}

Tensor
Flatten::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_shape_.empty(),
                 "flatten backward before forward");
    return grad_output.reshape(cached_shape_);
}

Tensor
Sigmoid::forward(const Tensor& input, bool /*training*/)
{
    cached_output_ = infer(input);
    return cached_output_;
}

Tensor
Sigmoid::infer(const Tensor& input) const
{
    Tensor out = Tensor::uninitialized(input.shape());
    const float* x = input.data();
    float* po = out.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        po[i] = 1.0f / (1.0f + std::exp(-x[i]));
    return out;
}

Tensor
Sigmoid::backward(const Tensor& grad_output)
{
    INSITU_CHECK(grad_output.same_shape(cached_output_),
                 "sigmoid backward shape mismatch");
    Tensor out = grad_output;
    float* po = out.data();
    const float* y = cached_output_.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        po[i] *= y[i] * (1.0f - y[i]);
    return out;
}

Tensor
Tanh::forward(const Tensor& input, bool /*training*/)
{
    cached_output_ = infer(input);
    return cached_output_;
}

Tensor
Tanh::infer(const Tensor& input) const
{
    Tensor out = Tensor::uninitialized(input.shape());
    const float* x = input.data();
    float* po = out.data();
    for (int64_t i = 0; i < out.numel(); ++i) po[i] = std::tanh(x[i]);
    return out;
}

Tensor
Tanh::backward(const Tensor& grad_output)
{
    INSITU_CHECK(grad_output.same_shape(cached_output_),
                 "tanh backward shape mismatch");
    Tensor out = grad_output;
    float* po = out.data();
    const float* y = cached_output_.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        po[i] *= 1.0f - y[i] * y[i];
    return out;
}

Dropout::Dropout(std::string name, double p, Rng& rng)
    : p_(p), rng_(rng.split())
{
    INSITU_CHECK(p >= 0.0 && p < 1.0, "dropout p must be in [0,1)");
    set_name(std::move(name));
}

Tensor
Dropout::forward(const Tensor& input, bool training)
{
    last_training_ = training;
    if (!training || p_ == 0.0) return infer(input);
    mask_ = Tensor(input.shape());
    Tensor out = input;
    const float scale = static_cast<float>(1.0 / (1.0 - p_));
    float* pm = mask_.data();
    float* po = out.data();
    for (int64_t i = 0; i < out.numel(); ++i) {
        if (rng_.bernoulli(p_)) {
            pm[i] = 0.0f;
            po[i] = 0.0f;
        } else {
            pm[i] = scale;
            po[i] *= scale;
        }
    }
    return out;
}

Tensor
Dropout::infer(const Tensor& input) const
{
    return input; // inverted dropout: eval mode is the identity
}

Tensor
Dropout::backward(const Tensor& grad_output)
{
    if (!last_training_ || p_ == 0.0) return grad_output;
    INSITU_CHECK(grad_output.same_shape(mask_),
                 "dropout backward shape mismatch");
    Tensor out = grad_output;
    float* po = out.data();
    const float* pm = mask_.data();
    for (int64_t i = 0; i < out.numel(); ++i) po[i] *= pm[i];
    return out;
}

} // namespace insitu
