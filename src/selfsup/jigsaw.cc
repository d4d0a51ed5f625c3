#include "selfsup/jigsaw.h"

#include "nn/loss.h"
#include "util/logging.h"
#include "util/rng.h"

namespace insitu {

Tensor
extract_patches(const Tensor& images)
{
    INSITU_CHECK(images.rank() == 4, "extract_patches expects NCHW");
    const int64_t b = images.dim(0), c = images.dim(1);
    const int64_t h = images.dim(2), w = images.dim(3);
    INSITU_CHECK(h % 3 == 0 && w % 3 == 0,
                 "image size must be divisible by 3, have ", h, "x", w);
    const int64_t ph = h / 3, pw = w / 3;
    Tensor out({b, PermutationSet::kTiles, c, ph, pw});
    const float* in = images.data();
    float* po = out.data();
    for (int64_t n = 0; n < b; ++n) {
        for (int64_t t = 0; t < PermutationSet::kTiles; ++t) {
            const int64_t ty = t / 3, tx = t % 3;
            for (int64_t ch = 0; ch < c; ++ch) {
                const float* plane = in + (n * c + ch) * h * w;
                float* dst =
                    po + (((n * PermutationSet::kTiles + t) * c + ch) *
                          ph) * pw;
                for (int64_t y = 0; y < ph; ++y)
                    for (int64_t x = 0; x < pw; ++x)
                        dst[y * pw + x] =
                            plane[(ty * ph + y) * w + tx * pw + x];
            }
        }
    }
    return out;
}

namespace {

/// The one tile gather: image n of @p in holds nine rows of @p row
/// floats (one per tile, grid order), and slot s of image n in @p out
/// gets row perms.perm(perm_ids[n])[s].
void
shuffle_tiles(const float* in, float* out, int64_t row,
              const PermutationSet& perms,
              std::span<const int64_t> perm_ids)
{
    constexpr int64_t kTiles = PermutationSet::kTiles;
    for (size_t n = 0; n < perm_ids.size(); ++n) {
        const auto& perm = perms.perm(static_cast<int>(perm_ids[n]));
        const int64_t base = static_cast<int64_t>(n) * kTiles;
        for (int64_t slot = 0; slot < kTiles; ++slot) {
            const float* src =
                in + (base + perm[static_cast<size_t>(slot)]) * row;
            std::copy(src, src + row, out + (base + slot) * row);
        }
    }
}

} // namespace

JigsawBatch
make_jigsaw_batch(const Tensor& images, const PermutationSet& perms,
                  Rng& rng)
{
    const Tensor tiles = extract_patches(images);
    JigsawBatch batch;
    batch.labels.resize(static_cast<size_t>(images.dim(0)));
    for (auto& label : batch.labels)
        label = static_cast<int64_t>(
            rng.next_below(static_cast<uint64_t>(perms.size())));
    batch.patches = Tensor::uninitialized(tiles.shape());
    shuffle_tiles(tiles.data(), batch.patches.data(),
                  tiles.dim(2) * tiles.dim(3) * tiles.dim(4), perms,
                  batch.labels);
    return batch;
}

JigsawNetwork::JigsawNetwork(Network trunk, Network head)
    : trunk_(std::move(trunk)), head_(std::move(head))
{}

namespace {

/// Fold tiles into the batch: (B, 9, C, ph, pw) -> (B*9, C, ph, pw),
/// so one trunk with shared weights sees all nine tiles.
Tensor
fold_tiles(const Tensor& patches)
{
    INSITU_CHECK(patches.rank() == 5 &&
                     patches.dim(1) == PermutationSet::kTiles,
                 "jigsaw forward expects (B, 9, C, ph, pw)");
    return patches.reshape(
        {patches.dim(0) * PermutationSet::kTiles, patches.dim(2),
         patches.dim(3), patches.dim(4)});
}

/// Per-tile features (B*9, F) -> the head's input (B, 9*F).
Tensor
concat_tiles(const Tensor& feats, int64_t batch)
{
    INSITU_CHECK(feats.rank() == 2,
                 "jigsaw trunk must emit rank-2 features");
    return feats.reshape({batch, -1});
}

} // namespace

Tensor
JigsawNetwork::forward(const Tensor& patches, bool training)
{
    const Tensor folded = fold_tiles(patches);
    last_batch_ = patches.dim(0);
    // Gradients of the nine tiles accumulate in the shared parameters.
    const Tensor feats = trunk_.forward(folded, training);
    return head_.forward(concat_tiles(feats, last_batch_), training);
}

Tensor
JigsawNetwork::infer(const Tensor& patches) const
{
    const Tensor feats = trunk_.infer(fold_tiles(patches));
    return head_.infer(concat_tiles(feats, patches.dim(0)));
}

Tensor
JigsawNetwork::tile_features(const Tensor& images) const
{
    return trunk_.infer(fold_tiles(extract_patches(images)));
}

Tensor
JigsawNetwork::infer_shuffled(const Tensor& features,
                              const PermutationSet& perms,
                              std::span<const int64_t> perm_ids) const
{
    const auto b = static_cast<int64_t>(perm_ids.size());
    INSITU_CHECK(features.rank() == 2 &&
                     features.dim(0) == b * PermutationSet::kTiles,
                 "infer_shuffled expects (B*9, F) tile features");
    Tensor gathered = Tensor::uninitialized(features.shape());
    shuffle_tiles(features.data(), gathered.data(), features.dim(1),
                  perms, perm_ids);
    return head_.infer(concat_tiles(gathered, b));
}

void
JigsawNetwork::backward(const Tensor& grad_logits)
{
    INSITU_CHECK(last_batch_ > 0, "jigsaw backward before forward");
    const Tensor grad_concat = head_.backward(grad_logits);
    const Tensor grad_feats = grad_concat.reshape(
        {last_batch_ * PermutationSet::kTiles, -1});
    trunk_.backward(grad_feats);
}

double
JigsawNetwork::train_batch(Sgd& opt, const JigsawBatch& batch)
{
    zero_grad();
    const Tensor logits = forward(batch.patches, /*training=*/true);
    SoftmaxCrossEntropy loss;
    const double value = loss.forward(logits, batch.labels);
    backward(loss.backward());
    opt.step(params());
    return value;
}

double
JigsawNetwork::evaluate(const Tensor& images,
                        const PermutationSet& perms, Rng& rng,
                        int64_t batch_size) const
{
    const int64_t n = images.dim(0);
    if (n == 0) return 0.0;
    int64_t correct = 0;
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t end = std::min(n, begin + batch_size);
        const Tensor chunk = images.slice0(begin, end);
        const JigsawBatch batch = make_jigsaw_batch(chunk, perms, rng);
        const Tensor logits = infer(batch.patches);
        const auto preds = logits.argmax_rows();
        for (size_t i = 0; i < preds.size(); ++i)
            if (preds[i] == batch.labels[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

std::vector<ParameterPtr>
JigsawNetwork::params() const
{
    auto out = trunk_.params();
    for (auto& p : head_.params()) {
        bool dup = false;
        for (auto& q : out)
            if (q.get() == p.get()) dup = true;
        if (!dup) out.push_back(p);
    }
    return out;
}

void
JigsawNetwork::zero_grad()
{
    for (auto& p : params()) p->zero_grad();
}

} // namespace insitu
