/**
 * @file
 * Unit tests for layers, the network container, weight
 * sharing/freezing surgery, loss, optimizer, trainer and
 * serialization, and the stateless inference path (Layer::infer,
 * Network::infer and the tasks built on it).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "iot/tasks.h"
#include "models/tiny.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lrn.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "selfsup/relative.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Conv2d, KnownConvolution)
{
    Rng rng(1);
    Conv2d conv("c", 1, 1, 2, 1, 0, rng);
    conv.weight()->value() = Tensor({1, 1, 2, 2}, {1, 0, 0, 1});
    conv.bias()->value() = Tensor({1}, {0.5f});
    Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    const Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.dim(2), 2);
    EXPECT_EQ(y.dim(3), 2);
    // Window [[1,2],[4,5]] . [[1,0],[0,1]] = 6, + bias.
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 6.5f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 14.5f);
}

TEST(Conv2d, StrideAndPaddingShapes)
{
    Rng rng(2);
    Conv2d conv("c", 3, 8, 5, 2, 2, rng);
    Tensor x({2, 3, 32, 32});
    const Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 8);
    EXPECT_EQ(y.dim(2), 16);
    EXPECT_EQ(y.dim(3), 16);
}

TEST(Conv2d, ChannelMismatchDies)
{
    Rng rng(3);
    Conv2d conv("c", 3, 4, 3, 1, 1, rng);
    Tensor x({1, 2, 8, 8});
    EXPECT_DEATH(conv.forward(x, false), "channels");
}

TEST(Linear, KnownAffine)
{
    Rng rng(4);
    Linear fc("fc", 2, 2, rng);
    fc.weight()->value() = Tensor({2, 2}, {1, 2, 3, 4});
    fc.bias()->value() = Tensor({2}, {10, 20});
    Tensor x({1, 2}, {1, 1});
    const Tensor y = fc.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f); // 1*1+2*1+10
    EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f); // 3*1+4*1+20
}

TEST(ReLU, ForwardAndBackwardMask)
{
    ReLU relu;
    Tensor x({4}, {-1, 0, 2, -3});
    const Tensor y = relu.forward(x, false);
    EXPECT_EQ(y.at(0), 0.0f);
    EXPECT_EQ(y.at(2), 2.0f);
    Tensor g({4}, {1, 1, 1, 1});
    const Tensor gi = relu.backward(g);
    EXPECT_EQ(gi.at(0), 0.0f);
    EXPECT_EQ(gi.at(2), 1.0f);
}

TEST(ReLU, NanAndNegativeZeroMapToPositiveZero)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    ReLU relu;
    const Tensor x({4}, {nan, -0.0f, 0.0f, 3.0f});
    for (const Tensor& y : {relu.forward(x, true), relu.infer(x)}) {
        for (int64_t i = 0; i < 3; ++i) {
            EXPECT_EQ(y.at(i), 0.0f) << i;
            EXPECT_FALSE(std::signbit(y.at(i))) << i;
        }
        EXPECT_EQ(y.at(3), 3.0f);
    }
    const Tensor gi = relu.backward(Tensor({4}, 1.0f));
    EXPECT_EQ(gi.at(0), 0.0f);
    EXPECT_EQ(gi.at(1), 0.0f);
    EXPECT_EQ(gi.at(3), 1.0f);
}

TEST(Flatten, RoundTripShapes)
{
    Flatten f;
    Tensor x({2, 3, 4, 5});
    const Tensor y = f.forward(x, false);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 60);
    const Tensor back = f.backward(y);
    EXPECT_EQ(back.shape(), x.shape());
}

TEST(Dropout, EvalModeIsIdentity)
{
    Rng rng(5);
    Dropout d("d", 0.5, rng);
    Tensor x({100}, 1.0f);
    const Tensor y = d.forward(x, /*training=*/false);
    EXPECT_EQ(y.sum(), 100.0);
}

TEST(Dropout, TrainingPreservesExpectation)
{
    Rng rng(6);
    Dropout d("d", 0.5, rng);
    Tensor x({20000}, 1.0f);
    const Tensor y = d.forward(x, /*training=*/true);
    EXPECT_NEAR(y.mean(), 1.0, 0.05);
}

TEST(MaxPool, SelectsWindowMaxima)
{
    MaxPool2d pool("p", 2, 2);
    Tensor x({1, 1, 4, 4},
             {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    const Tensor y = pool.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 6.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 16.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax)
{
    MaxPool2d pool("p", 2, 2);
    Tensor x({1, 1, 2, 2}, {1, 9, 3, 4});
    pool.forward(x, false);
    Tensor g({1, 1, 1, 1}, {5.0f});
    const Tensor gi = pool.backward(g);
    EXPECT_EQ(gi.at(0, 0, 0, 1), 5.0f);
    EXPECT_EQ(gi.at(0, 0, 0, 0), 0.0f);
}

TEST(AvgPool, AveragesWindows)
{
    AvgPool2d pool("p", 2, 2);
    Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
    const Tensor y = pool.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0), 2.5f);
    Tensor g({1, 1, 1, 1}, {4.0f});
    const Tensor gi = pool.backward(g);
    for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gi.at(i), 1.0f);
}

TEST(Softmax, RowsSumToOne)
{
    Tensor logits({2, 3}, {1, 2, 3, -1, 0, 1});
    const Tensor p = softmax_rows(logits);
    for (int64_t r = 0; r < 2; ++r) {
        double s = 0.0;
        for (int64_t c = 0; c < 3; ++c) s += p.at(r, c);
        EXPECT_NEAR(s, 1.0, 1e-6);
    }
}

TEST(Softmax, StableUnderLargeLogits)
{
    Tensor logits({1, 2}, {1000.0f, 999.0f});
    const Tensor p = softmax_rows(logits);
    EXPECT_NEAR(p.at(0, 0), 0.731, 1e-3);
}

TEST(CrossEntropy, PerfectPredictionLowLoss)
{
    Tensor logits({1, 3}, {20.0f, 0.0f, 0.0f});
    SoftmaxCrossEntropy loss;
    EXPECT_LT(loss.forward(logits, {0}), 1e-6);
}

TEST(CrossEntropy, UniformLogitsGiveLogC)
{
    Tensor logits({1, 4});
    SoftmaxCrossEntropy loss;
    EXPECT_NEAR(loss.forward(logits, {2}), std::log(4.0), 1e-6);
}

TEST(CrossEntropy, GradientSignsAndSum)
{
    Tensor logits({1, 3}, {1.0f, 2.0f, 0.5f});
    SoftmaxCrossEntropy loss;
    loss.forward(logits, {1});
    const Tensor g = loss.backward();
    EXPECT_LT(g.at(0, 1), 0.0f); // true class pushed up
    EXPECT_GT(g.at(0, 0), 0.0f);
    EXPECT_NEAR(g.sum(), 0.0, 1e-6); // softmax grad sums to zero
}

Network
make_mlp(Rng& rng)
{
    Network net("mlp");
    net.emplace<Linear>("fc1", 4, 8, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 8, 3, rng);
    return net;
}

TEST(Network, ForwardShapes)
{
    Rng rng(7);
    Network net = make_mlp(rng);
    Tensor x({5, 4});
    const Tensor y = net.forward(x);
    EXPECT_EQ(y.dim(0), 5);
    EXPECT_EQ(y.dim(1), 3);
}

TEST(Network, ParamCountAndZeroGrad)
{
    Rng rng(8);
    Network net = make_mlp(rng);
    EXPECT_EQ(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    for (auto& p : net.params()) p->grad().fill(1.0f);
    net.zero_grad();
    for (auto& p : net.params()) EXPECT_EQ(p->grad().sum(), 0.0);
}

Network
make_cnn(Rng& rng, const std::string& name = "cnn")
{
    Network net(name);
    net.emplace<Conv2d>("conv1", 1, 4, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Conv2d>("conv2", 4, 4, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Flatten>()
        .emplace<Linear>("fc", 4 * 8 * 8, 3, rng);
    return net;
}

TEST(Network, ConvLayerIndices)
{
    Rng rng(9);
    Network net = make_cnn(rng);
    const auto idx = net.conv_layer_indices();
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 0u);
    EXPECT_EQ(idx[1], 2u);
}

TEST(Network, FreezeFirstConvs)
{
    Rng rng(10);
    Network net = make_cnn(rng);
    net.freeze_first_convs(1);
    EXPECT_LT(net.trainable_param_count(), net.param_count());
    const auto idx = net.conv_layer_indices();
    for (auto& p : net.layer(idx[0]).params()) EXPECT_TRUE(p->frozen());
    for (auto& p : net.layer(idx[1]).params())
        EXPECT_FALSE(p->frozen());
    net.unfreeze_all();
    EXPECT_EQ(net.trainable_param_count(), net.param_count());
}

TEST(Network, FreezeTooManyDies)
{
    Rng rng(11);
    Network net = make_cnn(rng);
    EXPECT_DEATH(net.freeze_first_convs(3), "conv layers");
}

TEST(Network, CopyConvsCopiesValuesNotStorage)
{
    Rng rng(12);
    Network a = make_cnn(rng, "a");
    Network b = make_cnn(rng, "b");
    b.copy_convs_from(a, 2);
    const auto ia = a.conv_layer_indices();
    const auto ib = b.conv_layer_indices();
    auto pa = a.layer(ia[0]).params();
    auto pb = b.layer(ib[0]).params();
    EXPECT_NE(pa[0].get(), pb[0].get()); // distinct storage
    for (int64_t i = 0; i < pa[0]->numel(); ++i)
        EXPECT_EQ(pa[0]->value().at(i), pb[0]->value().at(i));
    EXPECT_EQ(b.shared_conv_prefix(a), 0u);
}

TEST(Network, ShareConvsSharesStorage)
{
    Rng rng(13);
    Network a = make_cnn(rng, "a");
    Network b = make_cnn(rng, "b");
    b.share_convs_from(a, 1);
    EXPECT_EQ(b.shared_conv_prefix(a), 1u);
    const auto ia = a.conv_layer_indices();
    const auto ib = b.conv_layer_indices();
    auto pa = a.layer(ia[0]).params();
    auto pb = b.layer(ib[0]).params();
    EXPECT_EQ(pa[0].get(), pb[0].get());
    // A write through one network is visible through the other.
    pa[0]->value().at(0) = 123.0f;
    EXPECT_EQ(pb[0]->value().at(0), 123.0f);
}

TEST(Network, SharedParamsReportedOnce)
{
    Rng rng(14);
    Network a = make_cnn(rng, "a");
    Network b = make_cnn(rng, "b");
    const int64_t before = b.param_count();
    b.share_convs_from(a, 2);
    EXPECT_EQ(b.param_count(), before); // same shapes, counted once
    EXPECT_EQ(b.params().size(), 6u);
}

TEST(Sgd, DescendsOnQuadratic)
{
    // Minimize f(w) = (w - 3)^2 by hand-feeding gradients.
    auto p = std::make_shared<Parameter>("w", std::vector<int64_t>{1});
    p->value().at(0) = 0.0f;
    Sgd opt({.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
    for (int i = 0; i < 100; ++i) {
        p->zero_grad();
        p->grad().at(0) = 2.0f * (p->value().at(0) - 3.0f);
        opt.step({p});
    }
    EXPECT_NEAR(p->value().at(0), 3.0f, 1e-3f);
}

TEST(Sgd, SkipsFrozenParams)
{
    auto p = std::make_shared<Parameter>("w", std::vector<int64_t>{1});
    p->set_frozen(true);
    p->grad().at(0) = 1.0f;
    Sgd opt({.lr = 0.1});
    opt.step({p});
    EXPECT_EQ(p->value().at(0), 0.0f);
}

TEST(Sgd, MomentumAcceleratesDescent)
{
    auto run = [](double momentum) {
        auto p =
            std::make_shared<Parameter>("w", std::vector<int64_t>{1});
        p->value().at(0) = 10.0f;
        Sgd opt({.lr = 0.01, .momentum = momentum});
        for (int i = 0; i < 20; ++i) {
            p->zero_grad();
            p->grad().at(0) = 2.0f * p->value().at(0);
            opt.step({p});
        }
        return std::abs(p->value().at(0));
    };
    EXPECT_LT(run(0.9), run(0.0));
}

TEST(Trainer, LearnsLinearlySeparableProblem)
{
    // Two Gaussian blobs in 2-D must be separable by a tiny MLP.
    Rng rng(15);
    const int64_t n = 200;
    Tensor x({n, 2});
    std::vector<int64_t> y(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        const int64_t cls = i % 2;
        y[static_cast<size_t>(i)] = cls;
        const float cx = cls ? 2.0f : -2.0f;
        x.at(i * 2 + 0) = cx + static_cast<float>(rng.normal(0, 0.5));
        x.at(i * 2 + 1) = static_cast<float>(rng.normal(0, 0.5));
    }
    Network net("toy");
    net.emplace<Linear>("fc1", 2, 8, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 8, 2, rng);
    Sgd opt({.lr = 0.1, .momentum = 0.9});
    const auto stats = train_epochs(net, opt, x, y, 16, 10, rng);
    EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
    EXPECT_GT(evaluate_accuracy(net, x, y), 0.95);
}

TEST(Trainer, GatherRows)
{
    Tensor x({3, 2}, {0, 1, 2, 3, 4, 5});
    const Tensor g = gather_rows(x, {2, 0});
    EXPECT_EQ(g.at(0, 0), 4.0f);
    EXPECT_EQ(g.at(1, 1), 1.0f);
}

TEST(Serialize, RoundTripRestoresWeights)
{
    Rng rng(16);
    Network a = make_cnn(rng, "net");
    Network b = make_cnn(rng, "net");
    std::stringstream ss;
    save_weights(a, ss);
    ASSERT_TRUE(load_weights(b, ss));
    auto pa = a.params();
    auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        for (int64_t j = 0; j < pa[i]->numel(); ++j)
            EXPECT_EQ(pa[i]->value().at(j), pb[i]->value().at(j));
}

TEST(Serialize, RejectsMismatchedNetwork)
{
    Rng rng(17);
    Network a = make_cnn(rng);
    Network b = make_mlp(rng);
    std::stringstream ss;
    save_weights(a, ss);
    EXPECT_FALSE(load_weights(b, ss));
}

TEST(Serialize, RejectsGarbageStream)
{
    Rng rng(18);
    Network a = make_mlp(rng);
    std::stringstream ss("not a weight file");
    EXPECT_FALSE(load_weights(a, ss));
}

TEST(Network, SummaryMentionsLayers)
{
    Rng rng(19);
    Network net = make_cnn(rng, "demo");
    const std::string s = net.summary();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("conv1"), std::string::npos);
    EXPECT_NE(s.find("trainable"), std::string::npos);
}

// --- stateless inference ------------------------------------------

void
expect_bit_identical(const Tensor& got, const Tensor& want,
                     const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    if (want.numel() == 0) return;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) *
                              sizeof(float)),
              0)
        << what;
}

/// Batches and widths every infer test sweeps: a single image, an odd
/// batch, both sides of Network::infer's 16-chunk boundaries (15, 16,
/// 17 and 33 images), a full default batch, and nine images' worth of
/// jigsaw tiles; serial and the 4-wide pool.
constexpr int64_t kInferBatches[] = {1, 3, 15, 16, 17, 32, 33, 81};
constexpr int kInferWidths[] = {1, 4};

/// One network per layer kind, each with its per-image input shape.
struct KindCase {
    std::string label;
    Network net;
    std::vector<int64_t> image_shape;
};

std::vector<KindCase>
layer_kind_cases(Rng& rng)
{
    std::vector<KindCase> out;
    auto add = [&](std::string label, LayerPtr layer,
                   std::vector<int64_t> shape) {
        Network net(label);
        net.add(std::move(layer));
        out.push_back({std::move(label), std::move(net),
                       std::move(shape)});
    };
    add("conv/im2col",
        std::make_unique<Conv2d>("conv", 3, 4, 3, 1, 1, rng),
        {3, 9, 9});
    auto direct = std::make_unique<Conv2d>("conv", 3, 4, 3, 2, 1, rng);
    direct->set_backend(ConvBackend::kDirect);
    add("conv/direct", std::move(direct), {3, 9, 9});
    add("linear", std::make_unique<Linear>("fc", 12, 5, rng), {12});
    add("relu", std::make_unique<ReLU>(), {4, 6, 6});
    add("maxpool", std::make_unique<MaxPool2d>("mp", 3, 2), {4, 7, 7});
    add("avgpool", std::make_unique<AvgPool2d>("ap", 2, 2), {4, 6, 6});
    add("lrn", std::make_unique<LocalResponseNorm>("lrn", 5),
        {6, 4, 4});
    add("flatten", std::make_unique<Flatten>(), {2, 3, 3});
    add("dropout", std::make_unique<Dropout>("drop", 0.5, rng), {10});
    add("sigmoid", std::make_unique<Sigmoid>(), {10});
    add("tanh", std::make_unique<Tanh>(), {10});
    return out;
}

Tensor
random_batch(int64_t batch, const std::vector<int64_t>& image_shape,
             Rng& rng)
{
    std::vector<int64_t> shape = {batch};
    shape.insert(shape.end(), image_shape.begin(), image_shape.end());
    Tensor x(shape);
    x.fill_uniform(rng, -1.0f, 1.0f);
    return x;
}

TEST(Infer, EveryLayerKindMatchesEvalForward)
{
    Rng rng(31);
    auto cases = layer_kind_cases(rng);
    for (const int64_t batch : kInferBatches) {
        for (KindCase& c : cases) {
            const Tensor x = random_batch(batch, c.image_shape, rng);
            set_num_threads(1);
            const Tensor want = c.net.forward(x, false);
            for (const int width : kInferWidths) {
                set_num_threads(width);
                const std::string what = c.label + " batch " +
                                         std::to_string(batch) +
                                         " width " +
                                         std::to_string(width);
                expect_bit_identical(c.net.layer(0).infer(x), want,
                                     what + " (layer)");
                expect_bit_identical(c.net.infer(x), want,
                                     what + " (network)");
            }
        }
    }
    set_num_threads(0);
}

/// Every layer kind in one stack, so backward crosses all of them.
Network
make_all_kinds(Rng& rng)
{
    Network net("all_kinds");
    auto direct = std::make_unique<Conv2d>("conv2", 4, 4, 3, 1, 1, rng);
    direct->set_backend(ConvBackend::kDirect);
    net.emplace<Conv2d>("conv1", 3, 4, 3, 1, 1, rng)
        .emplace<LocalResponseNorm>("lrn", 3)
        .emplace<ReLU>()
        .emplace<MaxPool2d>("pool1", 2, 2)
        .add(std::move(direct))
        .emplace<Tanh>()
        .emplace<AvgPool2d>("pool2", 2, 2)
        .emplace<Flatten>()
        .emplace<Dropout>("drop", 0.25, rng)
        .emplace<Linear>("fc1", 4 * 3 * 3, 6, rng)
        .emplace<Sigmoid>()
        .emplace<Linear>("fc2", 6, 3, rng);
    return net;
}

TEST(Infer, StackedNetworksMatchEvalForward)
{
    Rng rng(32);
    Network all = make_all_kinds(rng);
    Network tiny = make_tiny_inference(TinyConfig{}, rng);
    for (const int64_t batch : kInferBatches) {
        const Tensor xa = random_batch(batch, {3, 12, 12}, rng);
        const Tensor xt = random_batch(batch, {3, 24, 24}, rng);
        set_num_threads(1);
        const Tensor want_all = all.forward(xa, false);
        const Tensor want_tiny = tiny.forward(xt, false);
        for (const int width : kInferWidths) {
            set_num_threads(width);
            const std::string at = " batch " + std::to_string(batch) +
                                   " width " + std::to_string(width);
            expect_bit_identical(all.infer(xa), want_all,
                                 "all kinds" + at);
            expect_bit_identical(tiny.infer(xt), want_tiny,
                                 "tiny" + at);
        }
    }
    set_num_threads(0);
}

TEST(Infer, PretextNetworksMatchEvalForward)
{
    TinyConfig config;
    config.num_permutations = 8;
    Rng rng(33);
    PermutationSet perms(config.num_permutations, rng);
    JigsawNetwork jigsaw = make_tiny_jigsaw(config, rng);
    RelativePositionNetwork relative = make_tiny_relative(config, rng);
    for (const int64_t batch : kInferBatches) {
        const Tensor images = random_batch(batch, {3, 24, 24}, rng);
        const Tensor patches =
            make_jigsaw_batch(images, perms, rng).patches;
        const Tensor pairs = make_relative_batch(images, rng).pairs;
        set_num_threads(1);
        const Tensor want_jigsaw = jigsaw.forward(patches, false);
        const Tensor want_relative = relative.forward(pairs, false);
        for (const int width : kInferWidths) {
            set_num_threads(width);
            const std::string at = " batch " + std::to_string(batch) +
                                   " width " + std::to_string(width);
            expect_bit_identical(jigsaw.infer(patches), want_jigsaw,
                                 "jigsaw" + at);
            expect_bit_identical(relative.infer(pairs), want_relative,
                                 "relative" + at);
        }
    }
    set_num_threads(0);
}

TEST(Infer, LeavesTheBackwardCacheAlone)
{
    // forward -> infer(another batch) -> backward must give exactly
    // the gradients of forward -> backward: infer touches no cache.
    // Both nets share a seed, so their dropout masks match too.
    auto grads = [](bool interleave_infer) {
        Rng rng(34);
        Network net = make_all_kinds(rng);
        const Tensor x = random_batch(3, {3, 12, 12}, rng);
        const Tensor other = random_batch(5, {3, 12, 12}, rng);
        Tensor g({3, 3});
        g.fill_uniform(rng, -1.0f, 1.0f);
        net.zero_grad();
        net.forward(x, /*training=*/true);
        if (interleave_infer) net.infer(other);
        std::vector<Tensor> out = {net.backward(g)};
        for (const auto& p : net.params()) out.push_back(p->grad());
        return out;
    };
    const auto want = grads(false);
    const auto got = grads(true);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        expect_bit_identical(got[i], want[i],
                             "gradient " + std::to_string(i));
}

TEST(Infer, PredictAndDiagnoseMatchForwardReference)
{
    TinyConfig config;
    config.num_permutations = 8;
    Rng rng(35);
    PermutationSet perms(config.num_permutations, rng);
    const Tensor images = random_batch(37, {3, 24, 24}, rng);
    constexpr int64_t kBatch = 8;
    const DiagnosisConfig dcfg{.probes = 2, .fail_threshold = 2};
    constexpr uint64_t kDiagSeed = 77;

    InferenceTask inference(make_tiny_inference(config, rng));
    auto make_diagnosis = [&] {
        Rng r(36);
        return DiagnosisTask(make_tiny_jigsaw(config, r), perms, dcfg,
                             kDiagSeed);
    };

    // Forward-path references, replaying diagnose()'s probe draws.
    set_num_threads(1);
    const auto want_preds =
        inference.network().forward(images, false).argmax_rows();
    DiagnosisTask ref = make_diagnosis();
    Rng probe_rng(kDiagSeed);
    std::vector<int> failures(37, 0);
    for (int probe = 0; probe < dcfg.probes; ++probe) {
        for (int64_t b = 0; b < 37; b += kBatch) {
            const int64_t e = std::min<int64_t>(37, b + kBatch);
            const JigsawBatch batch =
                make_jigsaw_batch(images.slice0(b, e), perms, probe_rng);
            const auto preds = ref.network()
                                   .forward(batch.patches, false)
                                   .argmax_rows();
            for (size_t i = 0; i < preds.size(); ++i)
                if (preds[i] != batch.labels[i])
                    ++failures[static_cast<size_t>(b) + i];
        }
    }
    std::vector<bool> want_flags;
    for (int f : failures) want_flags.push_back(f >= dcfg.fail_threshold);

    for (const int width : kInferWidths) {
        set_num_threads(width);
        EXPECT_EQ(inference.predict(images, kBatch), want_preds)
            << "width " << width;
        DiagnosisTask diagnosis = make_diagnosis();
        EXPECT_EQ(diagnosis.diagnose(images, kBatch), want_flags)
            << "width " << width;
    }
    set_num_threads(0);
}

TEST(Infer, TrunkOnceDiagnosisMatchesPerProbeReference)
{
    // diagnose() runs the jigsaw trunk once per chunk and only the
    // head per probe. Reference: a fresh make_jigsaw_batch + infer per
    // probe and chunk, replaying the same probe draws. Four pretext
    // classes make probes pass often enough for flags to vary.
    TinyConfig config;
    config.num_permutations = 4;
    Rng rng(37);
    PermutationSet perms(config.num_permutations, rng);
    const auto make_net = [&] {
        Rng r(38);
        return make_tiny_jigsaw(config, r);
    };
    const JigsawNetwork net = make_net();
    constexpr int64_t kBatch = 32;
    constexpr uint64_t kDiagSeed = 78;
    bool some_flagged = false, some_clear = false;
    for (const int64_t n : {1, 31, 32, 33}) {
        const Tensor images = random_batch(n, {3, 24, 24}, rng);
        for (int probes = 1; probes <= 4; ++probes) {
            set_num_threads(1);
            Rng probe_rng(kDiagSeed);
            std::vector<int> failures(static_cast<size_t>(n), 0);
            for (int probe = 0; probe < probes; ++probe) {
                for (int64_t b = 0; b < n; b += kBatch) {
                    const Tensor chunk =
                        images.slice0(b, std::min(n, b + kBatch));
                    const JigsawBatch batch =
                        make_jigsaw_batch(chunk, perms, probe_rng);
                    const Tensor want = net.infer(batch.patches);
                    for (const int width : kInferWidths) {
                        set_num_threads(width);
                        expect_bit_identical(
                            net.infer_shuffled(net.tile_features(chunk),
                                               perms, batch.labels),
                            want,
                            "logits n " + std::to_string(n) +
                                " probe " + std::to_string(probe) +
                                " width " + std::to_string(width));
                    }
                    set_num_threads(1);
                    const auto preds = want.argmax_rows();
                    for (size_t i = 0; i < preds.size(); ++i)
                        if (preds[i] != batch.labels[i])
                            ++failures[static_cast<size_t>(b) + i];
                }
            }
            for (int threshold = 1; threshold <= probes; ++threshold) {
                std::vector<bool> want_flags;
                for (int f : failures) {
                    want_flags.push_back(f >= threshold);
                    (f >= threshold ? some_flagged : some_clear) = true;
                }
                for (const int width : kInferWidths) {
                    set_num_threads(width);
                    DiagnosisTask diagnosis(
                        make_net(), perms,
                        DiagnosisConfig{.probes = probes,
                                        .fail_threshold = threshold},
                        kDiagSeed);
                    EXPECT_EQ(diagnosis.diagnose(images, kBatch),
                              want_flags)
                        << "n " << n << " probes " << probes
                        << " threshold " << threshold << " width "
                        << width;
                }
            }
        }
    }
    EXPECT_TRUE(some_flagged && some_clear)
        << "the sweep never separates flagged from clear images";
    set_num_threads(0);
}

// --- grouped conv lowering ----------------------------------------

/// Conv2d's outputs and gradients, computed the per-image way: one
/// im2col_into + gemm per image for the forward, the input gradient
/// and the weight gradient, partials folded in batch order.
struct ConvResult {
    Tensor out, grad_input, grad_weight, grad_bias;
};

ConvResult
per_image_conv_reference(const Conv2d& conv, const Tensor& x,
                         const Tensor& gy)
{
    ConvGeometry g;
    g.in_channels = conv.in_channels();
    g.in_h = x.dim(2);
    g.in_w = x.dim(3);
    g.kernel = conv.kernel();
    g.stride = conv.stride();
    g.pad = conv.pad();
    const int64_t batch = x.dim(0), m = conv.out_channels();
    const int64_t ohw = g.out_h() * g.out_w();
    const int64_t ckk = g.in_channels * g.kernel * g.kernel;
    const float* fm = conv.weight()->value().data();
    const float* bias = conv.bias()->value().data();
    const GemmBackend be = gemm_backend();
    ConvResult r{Tensor({batch, m, g.out_h(), g.out_w()}),
                 Tensor(x.shape()), Tensor({m, ckk}), Tensor({m})};
    Tensor cols({ckk, ohw}), gcols({ckk, ohw}), part({m, ckk});
    for (int64_t b = 0; b < batch; ++b) {
        im2col_into(x, b, g, cols.data(), ohw);
        float* dst = r.out.data() + b * m * ohw;
        gemm(m, ohw, ckk, fm, ckk, 1, cols.data(), ohw, 1, dst, be);
        for (int64_t f = 0; f < m; ++f)
            for (int64_t i = 0; i < ohw; ++i) dst[f * ohw + i] += bias[f];

        const float* gom = gy.data() + b * m * ohw;
        gemm(m, ckk, ohw, gom, ohw, 1, cols.data(), 1, ohw, part.data(),
             be);
        for (int64_t i = 0; i < m * ckk; ++i)
            r.grad_weight.data()[i] += part.data()[i];
        for (int64_t f = 0; f < m; ++f) {
            float acc = 0.0f;
            for (int64_t i = 0; i < ohw; ++i) acc += gom[f * ohw + i];
            r.grad_bias.data()[f] += acc;
        }
        gemm(ckk, ohw, m, fm, 1, ckk, gom, ohw, 1, gcols.data(), be);
        col2im_accumulate(gcols.data(), r.grad_input, b, g, ohw);
    }
    return r;
}

TEST(Conv2dGrouped, BitIdenticalToPerImageLowering)
{
    struct GeomCase {
        std::string label;
        int64_t in_c, out_c, kernel, stride, pad, hw;
    };
    const GeomCase geoms[] = {
        {"8x8 tile", 3, 16, 3, 1, 1, 8},
        {"2x2 after pooling", 32, 32, 3, 1, 1, 2},
        {"24x24", 3, 16, 3, 1, 1, 24},
        {"stride 2 pad 0", 4, 6, 3, 2, 0, 9},
    };
    Rng rng(37);
    for (const GeomCase& gc : geoms) {
        Conv2d conv("conv", gc.in_c, gc.out_c, gc.kernel, gc.stride,
                    gc.pad, rng);
        conv.bias()->value().fill_uniform(rng, -0.5f, 0.5f);
        const ConvGeometry geom{gc.in_c, gc.hw, gc.hw, gc.kernel,
                                gc.stride, gc.pad};
        const int64_t group = conv_group_images(geom, 1 << 20);
        std::vector<int64_t> batches = {1, group - 1, group, group + 1,
                                        81};
        std::erase_if(batches, [](int64_t b) { return b < 1; });
        for (const int64_t batch : batches) {
            const Tensor x = random_batch(batch, {gc.in_c, gc.hw, gc.hw},
                                          rng);
            const Tensor gy = random_batch(
                batch, {gc.out_c, geom.out_h(), geom.out_w()}, rng);
            const ConvResult want = per_image_conv_reference(conv, x, gy);
            for (const int width : kInferWidths) {
                set_num_threads(width);
                const std::string what =
                    gc.label + " (group " + std::to_string(group) +
                    ") batch " + std::to_string(batch) + " width " +
                    std::to_string(width);
                for (const auto& p : conv.params()) p->zero_grad();
                expect_bit_identical(conv.forward(x, true), want.out,
                                     what + " forward");
                expect_bit_identical(conv.infer(x), want.out,
                                     what + " infer");
                expect_bit_identical(conv.backward(gy), want.grad_input,
                                     what + " grad_input");
                expect_bit_identical(conv.weight()->grad(),
                                     want.grad_weight.reshape(
                                         conv.weight()->grad().shape()),
                                     what + " weight grad");
                expect_bit_identical(conv.bias()->grad(), want.grad_bias,
                                     what + " bias grad");
            }
        }
    }
    set_num_threads(0);
}

TEST(Conv2dGrouped, GroupSizeIsAPureFunctionOfGeometryAndBatch)
{
    ConvGeometry g{32, 2, 2, 3, 1, 1}; // 2x2 out: 4 columns per image
    EXPECT_EQ(conv_group_images(g, 81), kConvGroupColumns / 4);
    EXPECT_EQ(conv_group_images(g, 3), 3);  // clamped to the batch
    EXPECT_EQ(conv_group_images(g, 0), 1);
    g.in_h = g.in_w = 24; // 576 columns: wider than the budget
    EXPECT_EQ(conv_group_images(g, 81), 1);
    for (const int width : kInferWidths) {
        set_num_threads(width);
        EXPECT_EQ(conv_group_images(g, 81), 1);
    }
    set_num_threads(0);
}

} // namespace
} // namespace insitu
