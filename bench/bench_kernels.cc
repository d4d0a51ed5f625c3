/**
 * @file
 * google-benchmark microbenchmarks of the executable substrate:
 * GEMM, im2col, conv forward/backward, jigsaw batching and synthetic
 * rendering. These track the performance of the library itself (not
 * a paper figure).
 *
 * The `*Threads` benchmarks sweep the execution width of the
 * deterministic thread pool (second Arg = threads; 1 is the serial
 * baseline). Outputs are bit-identical across the sweep by
 * construction — `tests/test_parallel.cc` asserts it — so the sweep
 * measures pure scheduling/throughput, not numerical drift. See
 * docs/performance.md for the methodology.
 */
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "data/synth.h"
#include "exp_common.h"
#include "models/tiny.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "nn/lrn.h"
#include "selfsup/jigsaw.h"
#include "selfsup/relative.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

void
BM_Matmul(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    Tensor a({n, n}), b({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// --- blocked vs naive GEMM ----------------------------------------
// The A/B pair behind scripts/check_perf.sh: same square matmul, one
// run per backend, single thread (the backends parallelize
// differently, so the single-thread ratio is the honest kernel
// comparison). The script asserts blocked/naive stays above a floor.

void
gemm_backend_bench(benchmark::State& state, GemmBackend backend)
{
    const int64_t n = state.range(0);
    const GemmBackend prev = gemm_backend();
    set_gemm_backend(backend);
    Rng rng(1);
    Tensor a({n, n}), b({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    set_gemm_backend(prev);
}

void
BM_GemmBlocked(benchmark::State& state)
{
    gemm_backend_bench(state, GemmBackend::kBlocked);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmNaive(benchmark::State& state)
{
    gemm_backend_bench(state, GemmBackend::kNaive);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_Im2col(benchmark::State& state)
{
    Rng rng(2);
    Tensor x({1, 16, 24, 24});
    x.fill_uniform(rng, -1.0f, 1.0f);
    ConvGeometry g;
    g.in_channels = 16;
    g.in_h = g.in_w = 24;
    g.kernel = 3;
    g.pad = 1;
    for (auto _ : state) {
        Tensor cols = im2col(x, 0, g);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2col);

void
BM_ConvForward(benchmark::State& state)
{
    const int64_t batch = state.range(0);
    Rng rng(3);
    Conv2d conv("c", 16, 32, 3, 1, 1, rng);
    Tensor x({batch, 16, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvForward)->Arg(1)->Arg(8)->Arg(32);

void
BM_TrainStep(benchmark::State& state)
{
    Rng rng(4);
    TinyConfig config;
    Network net = make_tiny_inference(config, rng);
    Sgd opt({.lr = 0.01, .momentum = 0.9});
    Tensor x({8, 3, 24, 24});
    x.fill_uniform(rng, 0.0f, 1.0f);
    std::vector<int64_t> y(8);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] = static_cast<int64_t>(i % 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(train_batch(net, opt, x, y));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TrainStep);

void
BM_JigsawBatch(benchmark::State& state)
{
    Rng rng(5);
    PermutationSet perms(16, rng);
    Tensor images({8, 3, 24, 24});
    images.fill_uniform(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        JigsawBatch batch = make_jigsaw_batch(images, perms, rng);
        benchmark::DoNotOptimize(batch.patches.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_JigsawBatch);

void
BM_ConvDirect(benchmark::State& state)
{
    Rng rng(7);
    Conv2d conv("c", 16, 32, 3, 1, 1, rng);
    conv.set_backend(ConvBackend::kDirect);
    Tensor x({8, 16, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ConvDirect);

void
BM_Lrn(benchmark::State& state)
{
    Rng rng(8);
    LocalResponseNorm lrn("n", 5);
    Tensor x({8, 16, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor y = lrn.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Lrn);

void
BM_RelativeBatch(benchmark::State& state)
{
    Rng rng(9);
    Tensor images({8, 3, 24, 24});
    images.fill_uniform(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        RelativeBatch batch = make_relative_batch(images, rng);
        benchmark::DoNotOptimize(batch.pairs.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_RelativeBatch);

void
BM_RenderImage(benchmark::State& state)
{
    Rng rng(6);
    SynthConfig config;
    const Condition cond = Condition::in_situ(0.5);
    int cls = 0;
    for (auto _ : state) {
        Tensor img = render_image(config, cls, cond, rng);
        benchmark::DoNotOptimize(img.data());
        cls = (cls + 1) % config.num_classes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderImage);

// --- serial vs threaded -------------------------------------------
// Args: {problem size, threads}. threads=1 is the serial baseline;
// speedup at k threads = time(threads=1) / time(threads=k).

void
BM_MatmulThreads(benchmark::State& state)
{
    const int64_t n = state.range(0);
    set_num_threads(static_cast<int>(state.range(1)));
    Rng rng(1);
    Tensor a({n, n}), b({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    set_num_threads(0);
}
BENCHMARK(BM_MatmulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

// Conv problems of the threaded conv benches. Shape 0 is one
// 16->32 conv on a batch of 32 12x12 maps. Shape 1 is the jigsaw
// trunk's five convs at their own geometry on 81 8x8 tiles (one
// diagnosis probe of nine images): 8x8, 4x4 and three 2x2 maps, the
// small-map GEMMs the grouped im2col lowering widens.
struct ConvProblem {
    std::vector<Conv2d> convs;
    std::vector<Tensor> inputs;
    int64_t batch = 0;
};

ConvProblem
make_conv_problem(bool trunk)
{
    Rng rng(3);
    ConvProblem p;
    auto add = [&](int64_t in_c, int64_t out_c, int64_t side) {
        p.convs.emplace_back("c", in_c, out_c, 3, 1, 1, rng);
        Tensor x({p.batch, in_c, side, side});
        x.fill_uniform(rng, -1.0f, 1.0f);
        p.inputs.push_back(std::move(x));
    };
    if (!trunk) {
        p.batch = 32;
        add(16, 32, 12);
        return p;
    }
    p.batch = 81;
    add(3, 16, 8);
    add(16, 24, 4);
    add(24, 32, 2);
    add(32, 32, 2);
    add(32, 32, 2);
    return p;
}

// Args: {shape, threads}; see make_conv_problem.
void
BM_ConvForwardThreads(benchmark::State& state)
{
    set_num_threads(static_cast<int>(state.range(1)));
    const bool trunk = state.range(0) == 1;
    ConvProblem p = make_conv_problem(trunk);
    for (auto _ : state) {
        for (size_t i = 0; i < p.convs.size(); ++i) {
            Tensor y = p.convs[i].forward(p.inputs[i], false);
            benchmark::DoNotOptimize(y.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * p.batch);
    state.SetLabel(trunk ? "jigsaw trunk convs, 81 tiles"
                         : "16->32 12x12, batch 32");
    set_num_threads(0);
}
BENCHMARK(BM_ConvForwardThreads)
    ->ArgNames({"trunk", "threads"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4});

// Network::infer, the stateless inference path: one parallel region
// per call, at most 16 chunks. Args: {shape, threads}; shape 0 is
// TinyNet at batch 4 (a typical serving batch), shape 1 the jigsaw
// trunk on 81 tiles (one diagnosis probe of nine images).
void
BM_InferThreads(benchmark::State& state)
{
    set_num_threads(static_cast<int>(state.range(1)));
    const bool trunk = state.range(0) == 1;
    Rng rng(10);
    TinyConfig config;
    Network net = trunk ? make_tiny_trunk(config, rng)
                        : make_tiny_inference(config, rng);
    const int64_t batch = trunk ? 81 : 4;
    const int64_t side =
        trunk ? config.image_size / 3 : config.image_size;
    Tensor x({batch, 3, side, side});
    x.fill_uniform(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        Tensor y = net.infer(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
    state.SetLabel(trunk ? "jigsaw trunk, 81 tiles" : "tiny, batch 4");
    set_num_threads(0);
}
BENCHMARK(BM_InferThreads)
    ->ArgNames({"trunk", "threads"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4});

// Args: {shape, threads}; see make_conv_problem.
void
BM_ConvBackwardThreads(benchmark::State& state)
{
    set_num_threads(static_cast<int>(state.range(1)));
    const bool trunk = state.range(0) == 1;
    ConvProblem p = make_conv_problem(trunk);
    std::vector<Tensor> grads;
    Rng rng(5);
    for (size_t i = 0; i < p.convs.size(); ++i) {
        Tensor gy(p.convs[i].forward(p.inputs[i], true).shape());
        gy.fill_uniform(rng, -1.0f, 1.0f);
        grads.push_back(std::move(gy));
    }
    for (auto _ : state) {
        for (size_t i = 0; i < p.convs.size(); ++i) {
            for (const auto& param : p.convs[i].params())
                param->grad().fill(0.0f);
            Tensor gx = p.convs[i].backward(grads[i]);
            benchmark::DoNotOptimize(gx.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * p.batch);
    state.SetLabel(trunk ? "jigsaw trunk convs, 81 tiles"
                         : "16->32 12x12, batch 32");
    set_num_threads(0);
}
BENCHMARK(BM_ConvBackwardThreads)
    ->ArgNames({"trunk", "threads"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4});

void
BM_TrainStepThreads(benchmark::State& state)
{
    set_num_threads(static_cast<int>(state.range(0)));
    Rng rng(4);
    TinyConfig config;
    Network net = make_tiny_inference(config, rng);
    Sgd opt({.lr = 0.01, .momentum = 0.9});
    Tensor x({32, 3, 24, 24});
    x.fill_uniform(rng, 0.0f, 1.0f);
    std::vector<int64_t> y(32);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] = static_cast<int64_t>(i % 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(train_batch(net, opt, x, y));
    }
    state.SetItemsProcessed(state.iterations() * 32);
    set_num_threads(0);
}
BENCHMARK(BM_TrainStepThreads)->Arg(1)->Arg(2)->Arg(4);

} // namespace
} // namespace insitu

// Expanded BENCHMARK_MAIN() plus the repo's telemetry hook: when
// INSITU_BENCH_JSON_DIR is set, banner() registers the atexit
// BENCH_kernels.json writer, giving scripts/check_perf.sh the metrics
// snapshot (exact tensor.matmul.* counters) next to the timing JSON.
int
main(int argc, char** argv)
{
    const char* dir = std::getenv("INSITU_BENCH_JSON_DIR");
    if (dir != nullptr && *dir != '\0') {
        insitu::bench::banner("kernels", "kernel microbenchmarks",
                              "library-level; no paper figure");
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
