/**
 * @file
 * 2-D convolution layer (square kernels, NCHW).
 *
 * Forward/backward are implemented with the im2col + GEMM lowering of
 * the paper's Fig. 8, one GEMM per group of consecutive images (see
 * conv_group_images()).
 */
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace insitu {

class Rng;

/**
 * Forward-pass implementation strategy. The paper contrasts exactly
 * these two lowerings: GPUs use im2col + GEMM at the cost of data
 * duplication (Fig. 8); FPGAs run the direct loop nest (Fig. 9).
 */
enum class ConvBackend { kIm2col, kDirect };

/**
 * Output columns the im2col lowering targets per GEMM. The per-image
 * product of a small feature map (a 2x2 map after pooling is 4
 * columns) fills a fraction of one register tile and repacks the
 * filter matrix per image; lowering several images side by side
 * widens it. The budget caps the group's arena scratch.
 */
inline constexpr int64_t kConvGroupColumns = 64;

/**
 * Images the im2col path lowers into one column matrix and one GEMM:
 * `kConvGroupColumns / (R*C)`, clamped to [1, batch]. A pure function
 * of the geometry and the batch — never the thread width — so the
 * group decomposition is fixed. Results do not depend on it either:
 * the blocked GEMM gives every output column the same ascending-k
 * sum whatever the matrix width, so grouped and per-image lowering
 * are bit-identical.
 */
int64_t conv_group_images(const ConvGeometry& geom, int64_t batch);

/** Convolution layer with weight (M,N,K,K) and bias (M). */
class Conv2d : public Layer {
  public:
    /**
     * @param name layer name (parameters become name.weight/.bias).
     * @param in_channels N, number of input feature maps.
     * @param out_channels M, number of filters.
     * @param kernel K, square kernel size.
     * @param stride window stride.
     * @param pad zero padding on all four sides.
     * @param rng initializer source (Kaiming-uniform fan-in scaling).
     */
    Conv2d(std::string name, int64_t in_channels, int64_t out_channels,
           int64_t kernel, int64_t stride, int64_t pad, Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor infer(const Tensor& input) const override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<ParameterPtr> params() override;
    void set_param(size_t i, ParameterPtr p) override;
    std::string kind() const override { return "conv"; }
    std::string describe() const override;

    int64_t in_channels() const { return in_channels_; }
    int64_t out_channels() const { return out_channels_; }
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }
    int64_t pad() const { return pad_; }

    /** Direct access for surgery and tests. */
    const ParameterPtr& weight() const { return weight_; }
    const ParameterPtr& bias() const { return bias_; }

    /** Select the forward lowering (backward always uses im2col). */
    void set_backend(ConvBackend backend) { backend_ = backend; }
    ConvBackend backend() const { return backend_; }

  private:
    ConvGeometry geometry(const Tensor& input) const;

    int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
    ConvBackend backend_ = ConvBackend::kIm2col;
    ParameterPtr weight_;
    ParameterPtr bias_;
    Tensor cached_input_;
};

} // namespace insitu
