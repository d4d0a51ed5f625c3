/**
 * @file
 * Unit tests for the jigsaw pretext machinery: permutation sets,
 * patch extraction/permutation, and the shared-trunk jigsaw network.
 */
#include <gtest/gtest.h>

#include "models/tiny.h"
#include "selfsup/jigsaw.h"
#include "selfsup/permutation.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(PermutationSet, AllEntriesAreValidPermutations)
{
    Rng rng(1);
    PermutationSet set(32, rng);
    EXPECT_EQ(set.size(), 32);
    for (int i = 0; i < set.size(); ++i)
        EXPECT_TRUE(PermutationSet::is_valid(set.perm(i)));
}

TEST(PermutationSet, FirstEntryIsIdentity)
{
    Rng rng(2);
    PermutationSet set(4, rng);
    for (int i = 0; i < PermutationSet::kTiles; ++i)
        EXPECT_EQ(set.perm(0)[static_cast<size_t>(i)], i);
}

TEST(PermutationSet, EntriesAreDistinct)
{
    Rng rng(3);
    PermutationSet set(64, rng);
    for (int i = 0; i < set.size(); ++i)
        for (int j = i + 1; j < set.size(); ++j)
            EXPECT_GT(PermutationSet::hamming(set.perm(i),
                                              set.perm(j)),
                      0);
}

TEST(PermutationSet, GreedySelectionSpreadsSet)
{
    // Hamming-greedy selection should keep the minimum pairwise
    // distance high (>= 6 of 9 for a 16-entry set is easy).
    Rng rng(4);
    PermutationSet set(16, rng);
    EXPECT_GE(set.min_hamming_distance(), 6);
}

TEST(PermutationSet, HammingIsMetricLike)
{
    PermutationSet::Perm a = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    PermutationSet::Perm b = {1, 0, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(PermutationSet::hamming(a, a), 0);
    EXPECT_EQ(PermutationSet::hamming(a, b), 2);
}

TEST(PermutationSet, IsValidRejectsDuplicates)
{
    PermutationSet::Perm bad = {0, 0, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_FALSE(PermutationSet::is_valid(bad));
    PermutationSet::Perm overflow = {0, 1, 2, 3, 4, 5, 6, 7, 9};
    EXPECT_FALSE(PermutationSet::is_valid(overflow));
}

TEST(Patches, ExtractTilesRowMajor)
{
    // 1-channel 6x6 image whose value encodes (y, x): tile (ty, tx)
    // must contain exactly the corresponding 2x2 region.
    Tensor img({1, 1, 6, 6});
    for (int64_t y = 0; y < 6; ++y)
        for (int64_t x = 0; x < 6; ++x)
            img.at(0, 0, y, x) = static_cast<float>(10 * y + x);
    const Tensor tiles = extract_patches(img);
    EXPECT_EQ(tiles.shape(),
              (std::vector<int64_t>{1, 9, 1, 2, 2}));
    // Tile 0 = rows 0-1, cols 0-1.
    EXPECT_EQ(tiles.at(0), 0.0f);
    EXPECT_EQ(tiles.at(1), 1.0f);
    EXPECT_EQ(tiles.at(2), 10.0f);
    // Tile 4 (center) starts at (2, 2).
    EXPECT_EQ(tiles.at(4 * 4), 22.0f);
    // Tile 8 (bottom-right) starts at (4, 4).
    EXPECT_EQ(tiles.at(8 * 4), 44.0f);
}

TEST(Patches, NonDivisibleSizeDies)
{
    Tensor img({1, 1, 7, 7});
    EXPECT_DEATH(extract_patches(img), "divisible by 3");
}

TEST(Patches, ApplyPermutationReordersTiles)
{
    // Every pixel of the 6x6 image is distinct, so each slot of the
    // shuffled batch identifies the image region it came from.
    Rng rng(4);
    PermutationSet set(8, rng);
    Tensor img({1, 1, 6, 6});
    for (int64_t i = 0; i < img.numel(); ++i)
        img.at(i) = static_cast<float>(i);
    Rng batch_rng(3);
    JigsawBatch batch = make_jigsaw_batch(img, set, batch_rng);
    while (batch.labels[0] == 0) // skip the identity draw
        batch = make_jigsaw_batch(img, set, batch_rng);
    const auto& perm = set.perm(static_cast<int>(batch.labels[0]));
    for (int64_t slot = 0; slot < 9; ++slot) {
        const int64_t src = perm[static_cast<size_t>(slot)];
        for (int64_t y = 0; y < 2; ++y)
            for (int64_t x = 0; x < 2; ++x)
                EXPECT_EQ(batch.patches.at(slot * 4 + y * 2 + x),
                          img.at(0, 0, (src / 3) * 2 + y,
                                 (src % 3) * 2 + x));
    }
}

TEST(Patches, IdentityPermutationIsNoop)
{
    // A one-entry set holds only the identity (entry 0).
    Rng rng(5);
    PermutationSet set(1, rng);
    Tensor img({2, 3, 6, 6});
    img.fill_uniform(rng, 0.0f, 1.0f);
    const Tensor tiles = extract_patches(img);
    const JigsawBatch same = make_jigsaw_batch(img, set, rng);
    EXPECT_EQ(same.labels, (std::vector<int64_t>{0, 0}));
    for (int64_t i = 0; i < tiles.numel(); ++i)
        EXPECT_EQ(same.patches.at(i), tiles.at(i));
}

TEST(JigsawBatch, LabelsMatchAppliedPermutations)
{
    Rng rng(6);
    PermutationSet set(8, rng);
    Tensor img({4, 1, 6, 6});
    img.fill_uniform(rng, 0.0f, 1.0f);
    const Tensor tiles = extract_patches(img);
    Rng batch_rng(7);
    const JigsawBatch batch = make_jigsaw_batch(img, set, batch_rng);
    ASSERT_EQ(batch.labels.size(), 4u);
    for (int64_t n = 0; n < 4; ++n) {
        const auto& perm = set.perm(
            static_cast<int>(batch.labels[static_cast<size_t>(n)]));
        const int64_t tile_elems = 4;
        for (int64_t slot = 0; slot < 9; ++slot) {
            const int64_t src = perm[static_cast<size_t>(slot)];
            for (int64_t e = 0; e < tile_elems; ++e) {
                EXPECT_EQ(
                    batch.patches.at((n * 9 + slot) * tile_elems + e),
                    tiles.at((n * 9 + src) * tile_elems + e));
            }
        }
    }
}

TEST(JigsawNetwork, ForwardShape)
{
    Rng rng(8);
    TinyConfig config;
    JigsawNetwork jig = make_tiny_jigsaw(config, rng);
    Tensor img({2, 3, 24, 24});
    img.fill_uniform(rng, 0.0f, 1.0f);
    PermutationSet set(config.num_permutations, rng);
    const JigsawBatch batch = make_jigsaw_batch(img, set, rng);
    const Tensor logits = jig.forward(batch.patches);
    EXPECT_EQ(logits.dim(0), 2);
    EXPECT_EQ(logits.dim(1), config.num_permutations);
}

TEST(JigsawNetwork, TrunkIsShareableWithInferenceNet)
{
    Rng rng(9);
    TinyConfig config;
    JigsawNetwork jig = make_tiny_jigsaw(config, rng);
    Network inference = make_tiny_inference(config, rng);
    inference.share_convs_from(jig.trunk(), 3);
    EXPECT_EQ(inference.shared_conv_prefix(jig.trunk()), 3u);
    // The shared conv weights are literally the same objects.
    const auto ii = inference.conv_layer_indices();
    const auto ti = jig.trunk().conv_layer_indices();
    EXPECT_EQ(inference.layer(ii[0]).params()[0].get(),
              jig.trunk().layer(ti[0]).params()[0].get());
    EXPECT_NE(inference.layer(ii[3]).params()[0].get(),
              jig.trunk().layer(ti[3]).params()[0].get());
}

TEST(JigsawNetwork, TrainingReducesPretextLoss)
{
    Rng rng(10);
    TinyConfig config;
    config.num_permutations = 4;
    JigsawNetwork jig = make_tiny_jigsaw(config, rng);
    PermutationSet set(config.num_permutations, rng);
    Tensor img({16, 3, 24, 24});
    img.fill_uniform(rng, 0.0f, 1.0f);
    Sgd opt({.lr = 0.05, .momentum = 0.9});
    double first = 0.0, last = 0.0;
    for (int step = 0; step < 30; ++step) {
        const JigsawBatch batch = make_jigsaw_batch(img, set, rng);
        const double loss = jig.train_batch(opt, batch);
        if (step == 0) first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
}

TEST(JigsawNetwork, ParamsAreDeduplicated)
{
    Rng rng(11);
    TinyConfig config;
    JigsawNetwork jig = make_tiny_jigsaw(config, rng);
    const auto params = jig.params();
    for (size_t i = 0; i < params.size(); ++i)
        for (size_t j = i + 1; j < params.size(); ++j)
            EXPECT_NE(params[i].get(), params[j].get());
    // 5 convs * 2 + 2 head linears * 2.
    EXPECT_EQ(params.size(), 14u);
}

TEST(TinyModels, TrunkFeatureWidthMatchesForward)
{
    Rng rng(12);
    TinyConfig config;
    Network trunk = make_tiny_trunk(config, rng);
    Tensor tile({1, 3, 8, 8});
    const Tensor feats = trunk.forward(tile);
    EXPECT_EQ(feats.dim(1), tiny_trunk_features(config));
}

TEST(TinyModels, InferenceHasFiveConvs)
{
    Rng rng(13);
    TinyConfig config;
    Network net = make_tiny_inference(config, rng);
    EXPECT_EQ(net.conv_layer_indices().size(), kTinyConvCount);
    Tensor x({2, 3, 24, 24});
    const Tensor y = net.forward(x);
    EXPECT_EQ(y.dim(1), config.num_classes);
}

} // namespace
} // namespace insitu
