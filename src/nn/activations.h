/**
 * @file
 * Parameter-free layers: ReLU, Flatten, Sigmoid, Tanh, Dropout.
 */
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace insitu {

/** Elementwise max(0, x). */
class ReLU : public Layer {
  public:
    explicit ReLU(std::string name = "relu") { set_name(std::move(name)); }

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "relu"; }

  private:
    Tensor mask_;
};

/** Collapse all non-batch dimensions: (B, ...) -> (B, F). */
class Flatten : public Layer {
  public:
    explicit Flatten(std::string name = "flatten")
    {
        set_name(std::move(name));
    }

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "flatten"; }

  private:
    std::vector<int64_t> cached_shape_;
};

/** Elementwise logistic sigmoid. */
class Sigmoid : public Layer {
  public:
    explicit Sigmoid(std::string name = "sigmoid")
    {
        set_name(std::move(name));
    }

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "sigmoid"; }

  private:
    Tensor cached_output_;
};

/** Elementwise hyperbolic tangent. */
class Tanh : public Layer {
  public:
    explicit Tanh(std::string name = "tanh")
    {
        set_name(std::move(name));
    }

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "tanh"; }

  private:
    Tensor cached_output_;
};

/** Inverted dropout; identity in eval mode. */
class Dropout : public Layer {
  public:
    /** @param p drop probability in [0, 1). */
    Dropout(std::string name, double p, Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "dropout"; }

  private:
    double p_;
    Rng rng_;
    Tensor mask_;
    bool last_training_ = false;
};

} // namespace insitu
