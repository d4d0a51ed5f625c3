/**
 * @file
 * Local Response Normalization (AlexNet-style, across channels).
 *
 * y_i = x_i / (k + (alpha/n) * sum_{j in window(i)} x_j^2)^beta
 *
 * Included for architectural fidelity to the networks the paper
 * characterizes; TinyNet builders can insert it after conv1/conv2.
 */
#pragma once

#include "nn/layer.h"

namespace insitu {

/** Cross-channel LRN over NCHW activations. */
class LocalResponseNorm : public Layer {
  public:
    /**
     * @param size n, the window width in channels (centered).
     * @param alpha scale of the squared sum.
     * @param beta exponent.
     * @param k additive bias.
     */
    LocalResponseNorm(std::string name, int64_t size = 5,
                      double alpha = 1e-4, double beta = 0.75,
                      double k = 2.0);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "lrn"; }
    std::string describe() const override;

  private:
    /// The one forward kernel; a non-null @p scale receives s_i.
    Tensor run(const Tensor& input, float* scale) const;

    int64_t size_;
    double alpha_, beta_, k_;
    Tensor cached_input_;
    Tensor cached_scale_; ///< s_i = k + (alpha/n) * window sum
};

} // namespace insitu
