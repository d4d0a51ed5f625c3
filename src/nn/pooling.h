/**
 * @file
 * Spatial pooling layers (max and average).
 */
#pragma once

#include "nn/layer.h"

namespace insitu {

/** Max pooling over square windows. */
class MaxPool2d : public Layer {
  public:
    MaxPool2d(std::string name, int64_t kernel, int64_t stride);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "maxpool"; }
    std::string describe() const override;

  private:
    Tensor run(const Tensor& input, std::vector<int32_t>* argmax) const;

    int64_t kernel_, stride_;
    std::vector<int64_t> cached_in_shape_;
    std::vector<int32_t> argmax_;
};

/** Average pooling over square windows. */
class AvgPool2d : public Layer {
  public:
    AvgPool2d(std::string name, int64_t kernel, int64_t stride);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "avgpool"; }
    std::string describe() const override;

  private:
    int64_t kernel_, stride_;
    std::vector<int64_t> cached_in_shape_;
};

} // namespace insitu
