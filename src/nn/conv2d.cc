#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {

// The conv lowerings below call the raw `gemm()` entry point (outputs
// go straight into layer tensors / workspace scratch, skipping the
// Tensor-level wrappers), so they tally the `tensor.matmul*` counters
// themselves — the totals stay exactly what the wrappers would have
// recorded, and `tensor.matmul.flops` remains the analytic 2·m·k·n
// per product.

Conv2d::Conv2d(std::string name, int64_t in_channels,
               int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t pad, Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad)
{
    INSITU_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0 && pad >= 0,
                 "invalid conv config");
    set_name(std::move(name));
    weight_ = std::make_shared<Parameter>(
        name_ + ".weight",
        std::vector<int64_t>{out_channels, in_channels, kernel, kernel});
    bias_ = std::make_shared<Parameter>(name_ + ".bias",
                                        std::vector<int64_t>{out_channels});
    const float bound = std::sqrt(
        6.0f / static_cast<float>(in_channels * kernel * kernel));
    weight_->value().fill_uniform(rng, -bound, bound);
}

ConvGeometry
Conv2d::geometry(const Tensor& input) const
{
    INSITU_CHECK(input.rank() == 4, "conv expects NCHW input");
    INSITU_CHECK(input.dim(1) == in_channels_, "conv ", name_,
                 ": input channels ", input.dim(1), " != ",
                 in_channels_);
    ConvGeometry g;
    g.in_channels = in_channels_;
    g.in_h = input.dim(2);
    g.in_w = input.dim(3);
    g.kernel = kernel_;
    g.stride = stride_;
    g.pad = pad_;
    return g;
}

int64_t
conv_group_images(const ConvGeometry& g, int64_t batch)
{
    const int64_t ohw = g.out_h() * g.out_w();
    return std::clamp<int64_t>(
        kConvGroupColumns / std::max<int64_t>(1, ohw), 1,
        std::max<int64_t>(1, batch));
}

Tensor
Conv2d::forward(const Tensor& input, bool /*training*/)
{
    Tensor out = infer(input);
    cached_input_ = input;
    return out;
}

Tensor
Conv2d::infer(const Tensor& input) const
{
    const ConvGeometry g = geometry(input);
    const int64_t batch = input.dim(0);
    const int64_t oh = g.out_h(), ow = g.out_w();

    if (backend_ == ConvBackend::kDirect) {
        return conv2d_direct(input, weight_->value(), bias_->value(),
                             g);
    }

    const int64_t ckk = in_channels_ * kernel_ * kernel_;
    const int64_t ohw = oh * ow;
    // The filter matrix Fm (M, N*K*K) is the weight tensor's own
    // storage viewed flat — no reshape copy.
    const float* fm = weight_->value().data();
    const float* pb = bias_->value().data();
    Tensor output = Tensor::uninitialized({batch, out_channels_, oh, ow});
    float* po = output.data();
    const GemmBackend be = gemm_backend();
    static auto& mm_calls = obs::MetricsRegistry::global().counter(
        "tensor.matmul.calls");
    static auto& mm_flops = obs::MetricsRegistry::global().counter(
        "tensor.matmul.flops");
    // Group-parallel: every group of conv_group_images() consecutive
    // images owns its output slice, so groups are independent (the
    // nested GEMM runs inline inside a pool worker). A group is
    // lowered side by side into one (N*K*K, G*R*C) column matrix Dm
    // and multiplied once; the columns and the (M, G*R*C) product
    // live in the executing thread's workspace arena.
    parallel_for(0, batch, conv_group_images(g, batch),
                 [&](int64_t b0, int64_t b1) {
        const int64_t ncols = (b1 - b0) * ohw;
        Workspace::Scope scope;
        float* cols = Workspace::local().alloc(ckk * ncols);
        for (int64_t b = b0; b < b1; ++b)
            im2col_into(input, b, g, cols + (b - b0) * ohw, ncols);
        // A one-image group is already NCHW: Om goes straight into
        // the output slice and the bias is added in place.
        float* om =
            b1 - b0 == 1
                ? po + b0 * out_channels_ * ohw
                : Workspace::local().alloc(out_channels_ * ncols);
        mm_calls.add(1);
        mm_flops.add(2 * out_channels_ * ckk * ncols);
        // Om = Fm * Dm.
        gemm(out_channels_, ncols, ckk, fm, ckk, 1, cols, ncols, 1, om,
             be);
        // Scatter image b's column block of each row m to (b, m) and
        // add the bias.
        for (int64_t b = b0; b < b1; ++b) {
            for (int64_t m = 0; m < out_channels_; ++m) {
                const float bias = pb[m];
                const float* src = om + m * ncols + (b - b0) * ohw;
                float* dst = po + (b * out_channels_ + m) * ohw;
                for (int64_t i = 0; i < ohw; ++i) dst[i] = src[i] + bias;
            }
        }
    });
    return output;
}

Tensor
Conv2d::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_input_.empty(),
                 "conv backward before forward");
    const ConvGeometry g = geometry(cached_input_);
    const int64_t batch = cached_input_.dim(0);
    const int64_t oh = g.out_h(), ow = g.out_w();
    INSITU_CHECK(grad_output.rank() == 4 &&
                     grad_output.dim(0) == batch &&
                     grad_output.dim(1) == out_channels_ &&
                     grad_output.dim(2) == oh &&
                     grad_output.dim(3) == ow,
                 "conv grad_output shape mismatch");

    const int64_t ckk = in_channels_ * kernel_ * kernel_;
    const int64_t ohw = oh * ow;
    const float* fm = weight_->value().data(); // Fm: (M, N*K*K) flat
    Tensor grad_input({batch, in_channels_, g.in_h, g.in_w});
    float* gb = bias_->grad().data();
    const GemmBackend be = gemm_backend();
    auto& reg = obs::MetricsRegistry::global();
    static auto& ta_calls = reg.counter("tensor.matmul_ta.calls");
    static auto& ta_flops = reg.counter("tensor.matmul_ta.flops");
    static auto& tb_calls = reg.counter("tensor.matmul_tb.calls");
    static auto& tb_flops = reg.counter("tensor.matmul_tb.flops");

    // Group-parallel with ordered reduction, over the same groups as
    // the forward. Each group lowers its images once into a
    // (N*K*K, G*R*C) column matrix. The input gradient is one
    // Fm^T * gOm product over the whole group, scattered back per
    // image with a strided col2im into that image's (disjoint)
    // grad_input slice. The weight and bias gradients stay per
    // image — each image's dL/dOm * Dm^T reads its column block of
    // the group matrix through a strided B operand — and the
    // per-image partials are combined serially in batch order: the
    // same summation order as a serial loop, so results are
    // bit-identical at any thread count and any group size. Each
    // partial is a small tensor allocated by the thread computing it
    // (one batch-sized block of partials raised the training loop's
    // peak RSS).
    std::vector<Tensor> gfm_part(static_cast<size_t>(batch));
    Tensor gbias_part = Tensor::uninitialized({batch, out_channels_});
    parallel_for(0, batch, conv_group_images(g, batch),
                 [&](int64_t b0, int64_t b1) {
        const int64_t ncols = (b1 - b0) * ohw;
        Workspace::Scope scope;
        float* cols = Workspace::local().alloc(ckk * ncols);
        for (int64_t b = b0; b < b1; ++b)
            im2col_into(cached_input_, b, g, cols + (b - b0) * ohw,
                        ncols);
        // gOm of the group as one (M, G*R*C) matrix; a one-image
        // group reads its (M, R*C) row slice of grad_output in place.
        const float* gom =
            grad_output.data() + b0 * out_channels_ * ohw;
        if (b1 - b0 > 1) {
            float* gather =
                Workspace::local().alloc(out_channels_ * ncols);
            for (int64_t b = b0; b < b1; ++b)
                for (int64_t m = 0; m < out_channels_; ++m)
                    std::memcpy(gather + m * ncols + (b - b0) * ohw,
                                grad_output.data() +
                                    (b * out_channels_ + m) * ohw,
                                static_cast<size_t>(ohw) *
                                    sizeof(float));
            gom = gather;
        }

        for (int64_t b = b0; b < b1; ++b) {
            const float* gom_img =
                grad_output.data() + b * out_channels_ * ohw;
            // dL/dFm contribution: dL/dOm * Dm^T.
            tb_calls.add(1);
            tb_flops.add(2 * out_channels_ * ohw * ckk);
            Tensor& part = gfm_part[static_cast<size_t>(b)];
            part = Tensor::uninitialized({out_channels_, ckk});
            gemm(out_channels_, ckk, ohw, gom_img, ohw, 1,
                 cols + (b - b0) * ohw, 1, ncols, part.data(), be);

            // dL/dbias contribution: sum over spatial positions.
            float* brow = gbias_part.data() + b * out_channels_;
            for (int64_t m = 0; m < out_channels_; ++m) {
                float acc = 0.0f;
                const float* row = gom_img + m * ohw;
                for (int64_t i = 0; i < ohw; ++i) acc += row[i];
                brow[m] = acc;
            }
        }

        // dL/dDm = Fm^T * dL/dOm for the whole group, scattered back
        // with col2im. Dm is dead once the weight gradients have
        // read it, so dL/dDm overwrites it in place.
        ta_calls.add(1);
        ta_flops.add(2 * ckk * out_channels_ * ncols);
        float* gcols = cols;
        gemm(ckk, ncols, out_channels_, fm, 1, ckk, gom, ncols, 1, gcols,
             be);
        for (int64_t b = b0; b < b1; ++b)
            col2im_accumulate(gcols + (b - b0) * ohw, grad_input, b, g,
                              ncols);
    });
    // Serial fold in batch order; (M, N*K*K) partials accumulate
    // straight into the (M, N, K, K) grad — same flat layout.
    float* gw = weight_->grad().data();
    for (int64_t b = 0; b < batch; ++b) {
        const float* src = gfm_part[static_cast<size_t>(b)].data();
        for (int64_t i = 0; i < out_channels_ * ckk; ++i)
            gw[i] += src[i];
        const float* brow = gbias_part.data() + b * out_channels_;
        for (int64_t m = 0; m < out_channels_; ++m) gb[m] += brow[m];
    }
    return grad_input;
}

std::vector<ParameterPtr>
Conv2d::params()
{
    return {weight_, bias_};
}

void
Conv2d::set_param(size_t i, ParameterPtr p)
{
    INSITU_CHECK(p != nullptr, "null parameter");
    if (i == 0) {
        INSITU_CHECK(p->value().same_shape(weight_->value()),
                     "conv weight shape mismatch in set_param");
        weight_ = std::move(p);
    } else if (i == 1) {
        INSITU_CHECK(p->value().same_shape(bias_->value()),
                     "conv bias shape mismatch in set_param");
        bias_ = std::move(p);
    } else {
        panic("conv has two parameter slots");
    }
}

std::string
Conv2d::describe() const
{
    std::ostringstream oss;
    oss << "conv " << in_channels_ << "->" << out_channels_ << " k"
        << kernel_ << " s" << stride_ << " p" << pad_;
    return oss.str();
}

} // namespace insitu
