/**
 * @file
 * Unit tests for the tensor substrate: shapes, arithmetic, GEMM
 * variants, and the im2col/col2im lowering of the paper's Fig. 8.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FillValueConstructor)
{
    Tensor t({4}, 2.5f);
    EXPECT_EQ(t.sum(), 10.0);
}

TEST(Tensor, DataConstructorChecksSize)
{
    EXPECT_DEATH(Tensor({2, 2}, std::vector<float>{1.0f}), "numel");
}

TEST(Tensor, At2dRowMajor)
{
    Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
    EXPECT_EQ(t.at(0, 2), 2.0f);
    EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, At4dNchw)
{
    Tensor t({1, 2, 2, 2});
    t.at(0, 1, 1, 0) = 9.0f;
    EXPECT_EQ(t.at(6), 9.0f); // ((0*2+1)*2+1)*2+0 = 6
}

TEST(Tensor, BoundsChecked)
{
    Tensor t({2, 2});
    EXPECT_DEATH(t.at(4), "out of range");
    EXPECT_DEATH(t.at(2, 0), "out of range");
}

TEST(Tensor, ReshapeInference)
{
    Tensor t({2, 6});
    const Tensor r = t.reshape({4, -1});
    EXPECT_EQ(r.dim(1), 3);
    EXPECT_DEATH(t.reshape({5, -1}), "infer");
}

TEST(Tensor, Slice0)
{
    Tensor t({3, 2}, {0, 1, 2, 3, 4, 5});
    const Tensor s = t.slice0(1, 3);
    EXPECT_EQ(s.dim(0), 2);
    EXPECT_EQ(s.at(0, 0), 2.0f);
    EXPECT_EQ(s.at(1, 1), 5.0f);
}

TEST(Tensor, ElementwiseArithmetic)
{
    Tensor a({2}, {1, 2});
    Tensor b({2}, {3, 4});
    const Tensor c = a + b;
    EXPECT_EQ(c.at(0), 4.0f);
    const Tensor d = b - a;
    EXPECT_EQ(d.at(1), 2.0f);
    const Tensor e = a * 2.0f;
    EXPECT_EQ(e.at(1), 4.0f);
}

TEST(Tensor, ShapeMismatchDies)
{
    Tensor a({2});
    Tensor b({3});
    EXPECT_DEATH(a += b, "shape mismatch");
}

TEST(Tensor, Reductions)
{
    Tensor t({4}, {-1, 5, 2, 0});
    EXPECT_EQ(t.min(), -1.0f);
    EXPECT_EQ(t.max(), 5.0f);
    EXPECT_EQ(t.mean(), 1.5);
    EXPECT_EQ(t.argmax(), 1);
    EXPECT_EQ(t.squared_norm(), 30.0);
}

TEST(Tensor, ArgmaxRows)
{
    Tensor t({2, 3}, {0, 9, 1, 7, 2, 3});
    const auto rows = t.argmax_rows();
    EXPECT_EQ(rows[0], 1);
    EXPECT_EQ(rows[1], 0);
}

TEST(Tensor, ShapeStr)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.shape_str(), "f32[2, 3, 4]");
}

TEST(Matmul, SmallKnownProduct)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, InnerDimMismatchDies)
{
    Tensor a({2, 3});
    Tensor b({2, 2});
    EXPECT_DEATH(matmul(a, b), "inner dims");
}

TEST(Matmul, TransposedVariantsAgree)
{
    Rng rng(5);
    Tensor a({4, 3});
    Tensor b({3, 5});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor ref = matmul(a, b);

    // a stored transposed: at(k, m) = a(m, k).
    Tensor at({3, 4});
    for (int64_t m = 0; m < 4; ++m)
        for (int64_t k = 0; k < 3; ++k) at.at(k, m) = a.at(m, k);
    const Tensor via_ta = matmul_ta(at, b);

    // b stored transposed: bt(n, k) = b(k, n).
    Tensor bt({5, 3});
    for (int64_t k = 0; k < 3; ++k)
        for (int64_t n = 0; n < 5; ++n) bt.at(n, k) = b.at(k, n);
    const Tensor via_tb = matmul_tb(a, bt);

    for (int64_t i = 0; i < ref.numel(); ++i) {
        EXPECT_NEAR(via_ta.at(i), ref.at(i), 1e-5f);
        EXPECT_NEAR(via_tb.at(i), ref.at(i), 1e-5f);
    }
}

TEST(ConvGeometry, OutputDims)
{
    ConvGeometry g;
    g.in_channels = 3;
    g.in_h = g.in_w = 32;
    g.kernel = 5;
    g.stride = 2;
    g.pad = 2;
    EXPECT_EQ(g.out_h(), 16);
    EXPECT_EQ(g.out_w(), 16);
}

TEST(Im2col, IdentityKernelIsFlatten)
{
    // K=1, stride=1, pad=0: im2col is just the (C, H*W) view.
    Tensor x({1, 2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
    ConvGeometry g;
    g.in_channels = 2;
    g.in_h = g.in_w = 2;
    const Tensor cols = im2col(x, 0, g);
    EXPECT_EQ(cols.dim(0), 2);
    EXPECT_EQ(cols.dim(1), 4);
    for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(cols.at(i), x.at(i));
}

TEST(Im2col, ExtractsWindowsWithPadding)
{
    // 1x1x2x2 input, K=3, pad=1: the center of each window walks the
    // image; corners see zero padding.
    Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
    ConvGeometry g;
    g.in_channels = 1;
    g.in_h = g.in_w = 2;
    g.kernel = 3;
    g.pad = 1;
    const Tensor cols = im2col(x, 0, g);
    EXPECT_EQ(cols.dim(0), 9);
    EXPECT_EQ(cols.dim(1), 4);
    // Center tap (row 4 of the 3x3 kernel) reproduces the image.
    EXPECT_EQ(cols.at(4, 0), 1.0f);
    EXPECT_EQ(cols.at(4, 1), 2.0f);
    EXPECT_EQ(cols.at(4, 2), 3.0f);
    EXPECT_EQ(cols.at(4, 3), 4.0f);
    // Top-left tap of the first window is padding.
    EXPECT_EQ(cols.at(0, 0), 0.0f);
    // Top-left tap of the last window sees pixel (0,0)=1.
    EXPECT_EQ(cols.at(0, 3), 1.0f);
}

TEST(Col2im, IsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> for random x, y: the scatter
    // must be the exact adjoint of the gather or conv gradients are
    // wrong.
    Rng rng(9);
    ConvGeometry g;
    g.in_channels = 2;
    g.in_h = 5;
    g.in_w = 4;
    g.kernel = 3;
    g.stride = 2;
    g.pad = 1;
    Tensor x({1, 2, 5, 4});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor cols = im2col(x, 0, g);
    Tensor y(cols.shape());
    y.fill_uniform(rng, -1.0f, 1.0f);

    double lhs = 0.0;
    for (int64_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols.at(i)) * y.at(i);

    Tensor back({1, 2, 5, 4});
    col2im_accumulate(y, back, 0, g);
    double rhs = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x.at(i)) * back.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

/// Per-element lowering, one bounds test per column element: the
/// bit-exact reference for the row-copy im2col_into and
/// col2im_accumulate.
void
reference_im2col(const Tensor& input, int64_t b, const ConvGeometry& g,
                 float* out, int64_t ld)
{
    const int64_t oh = g.out_h(), ow = g.out_w();
    const float* in = input.data() + b * g.in_channels * g.in_h * g.in_w;
    for (int64_t c = 0; c < g.in_channels; ++c)
        for (int64_t ky = 0; ky < g.kernel; ++ky)
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                float* dst = out + ((c * g.kernel + ky) * g.kernel + kx) * ld;
                for (int64_t y = 0; y < oh; ++y) {
                    const int64_t iy = y * g.stride + ky - g.pad;
                    for (int64_t x = 0; x < ow; ++x) {
                        const int64_t ix = x * g.stride + kx - g.pad;
                        float v = 0.0f;
                        if (iy >= 0 && iy < g.in_h && ix >= 0 &&
                            ix < g.in_w)
                            v = in[(c * g.in_h + iy) * g.in_w + ix];
                        dst[y * ow + x] = v;
                    }
                }
            }
}

void
reference_col2im(const float* cols, Tensor& grad, int64_t b,
                 const ConvGeometry& g, int64_t ld)
{
    const int64_t oh = g.out_h(), ow = g.out_w();
    float* out = grad.data() + b * g.in_channels * g.in_h * g.in_w;
    for (int64_t c = 0; c < g.in_channels; ++c)
        for (int64_t ky = 0; ky < g.kernel; ++ky)
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                const float* src =
                    cols + ((c * g.kernel + ky) * g.kernel + kx) * ld;
                for (int64_t y = 0; y < oh; ++y) {
                    const int64_t iy = y * g.stride + ky - g.pad;
                    if (iy < 0 || iy >= g.in_h) continue;
                    for (int64_t x = 0; x < ow; ++x) {
                        const int64_t ix = x * g.stride + kx - g.pad;
                        if (ix < 0 || ix >= g.in_w) continue;
                        out[(c * g.in_h + iy) * g.in_w + ix] +=
                            src[y * ow + x];
                    }
                }
            }
}

bool
same_bits(const float* a, const float* b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(Lowering, RowCopyMatchesPerElementReference)
{
    struct Geom {
        int64_t c, h, w, k, s, p;
    };
    const Geom geoms[] = {
        {2, 5, 4, 3, 2, 1},  // odd height, stride 2
        {1, 3, 3, 3, 1, 3},  // pad == kernel
        {1, 2, 3, 2, 1, 4},  // pad > kernel
        {3, 9, 7, 5, 2, 5},  // pad == kernel, stride 2
        {3, 7, 7, 1, 1, 0},  // 1x1 kernel
        {2, 6, 5, 1, 2, 0},  // 1x1 kernel, stride 2
        {2, 5, 5, 1, 1, 2},  // 1x1 kernel in padding
        {2, 3, 3, 3, 1, 0},  // 1x1 output map
        {1, 1, 1, 3, 1, 1},  // 1x1 input and output
        {1, 4, 4, 5, 3, 2},  // kernel > image
        {1, 7, 9, 2, 3, 1},  // stride > kernel
        {2, 8, 8, 3, 1, 1},  // a jigsaw tile
        {2, 12, 11, 5, 1, 2},
    };
    Rng rng(10);
    for (const Geom& gc : geoms) {
        ConvGeometry g;
        g.in_channels = gc.c;
        g.in_h = gc.h;
        g.in_w = gc.w;
        g.kernel = gc.k;
        g.stride = gc.s;
        g.pad = gc.p;
        const int64_t ohw = g.out_h() * g.out_w();
        const int64_t rows = g.in_channels * g.kernel * g.kernel;
        Tensor x({2, g.in_channels, g.in_h, g.in_w});
        x.fill_uniform(rng, -1.0f, 1.0f);
        for (const int64_t ld : {ohw, ohw + 3}) {
            const std::string at =
                "geom c" + std::to_string(gc.c) + " " +
                std::to_string(gc.h) + "x" + std::to_string(gc.w) + " k" +
                std::to_string(gc.k) + " s" + std::to_string(gc.s) +
                " p" + std::to_string(gc.p) + " ld " + std::to_string(ld);
            const auto size = static_cast<size_t>(rows * ld);
            // The gap past R*C in each row must stay untouched.
            std::vector<float> got(size, 7.0f), want(size, 7.0f);
            im2col_into(x, 1, g, got.data(), ld);
            reference_im2col(x, 1, g, want.data(), ld);
            EXPECT_TRUE(same_bits(got.data(), want.data(), size))
                << "im2col " << at;

            // col2im accumulates into a non-zero gradient and must not
            // read the gap, which holds NaN.
            std::vector<float> cols(size,
                                    std::numeric_limits<float>::quiet_NaN());
            for (int64_t r = 0; r < rows; ++r)
                for (int64_t i = 0; i < ohw; ++i)
                    cols[static_cast<size_t>(r * ld + i)] =
                        static_cast<float>(rng.uniform(-1.0, 1.0));
            Tensor grad_got(x.shape());
            grad_got.fill_uniform(rng, -1.0f, 1.0f);
            Tensor grad_want = grad_got;
            col2im_accumulate(cols.data(), grad_got, 1, g, ld);
            reference_col2im(cols.data(), grad_want, 1, g, ld);
            EXPECT_TRUE(same_bits(grad_got.data(), grad_want.data(),
                                  static_cast<size_t>(x.numel())))
                << "col2im " << at;
        }
    }
}

TEST(Tensor, FillUniformRespectsRange)
{
    Rng rng(3);
    Tensor t({1000});
    t.fill_uniform(rng, -0.5f, 0.5f);
    EXPECT_GE(t.min(), -0.5f);
    EXPECT_LT(t.max(), 0.5f);
    EXPECT_NEAR(t.mean(), 0.0, 0.05);
}

} // namespace
} // namespace insitu
