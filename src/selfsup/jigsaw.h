/**
 * @file
 * Jigsaw context-prediction pretext task (§III-A, Fig. 3).
 *
 * An image is cut into a 3x3 grid of tiles, the tiles are reordered by
 * a permutation drawn from a PermutationSet, and the network must
 * classify which permutation was applied. The nine tiles all pass
 * through ONE shared trunk (the paper's second level of weight
 * sharing), implemented here by folding the tile axis into the batch
 * axis, so trunk gradients from the nine tiles accumulate in one
 * parameter set automatically.
 */
#pragma once

#include <span>
#include <vector>

#include "nn/network.h"
#include "nn/optimizer.h"
#include "selfsup/permutation.h"

namespace insitu {

class Rng;

/**
 * Cut a batch (B, C, H, W) into 3x3 tiles: result (B, 9, C, H/3, W/3),
 * tile index in row-major grid order. H and W must be divisible by 3.
 */
Tensor extract_patches(const Tensor& images);

/** A pretext training batch: shuffled patches plus permutation ids. */
struct JigsawBatch {
    Tensor patches; ///< (B, 9, C, ph, pw), tiles already shuffled
    std::vector<int64_t> labels; ///< permutation index per image
};

/** Build a pretext batch by sampling one permutation per image. */
JigsawBatch make_jigsaw_batch(const Tensor& images,
                              const PermutationSet& perms, Rng& rng);

/**
 * The jigsaw network: a convolutional trunk applied to each of the 9
 * tiles (weights shared across tiles) and an FC head over the
 * concatenated tile embeddings predicting the permutation class.
 *
 * The trunk is an ordinary Network, so all of Network's surgery —
 * copy_convs_from / share_convs_from / freeze_first_convs — works
 * directly between this pretext trunk and an inference network. That
 * is exactly the transfer-learning path of Fig. 4.
 */
class JigsawNetwork {
  public:
    /**
     * @param trunk per-tile feature extractor; input (B*9, C, ph, pw),
     *        output rank-2 (B*9, F) — i.e. it must end in Flatten or a
     *        Linear layer.
     * @param head classifier over (B, 9*F) producing permutation
     *        logits.
     */
    JigsawNetwork(Network trunk, Network head);

    /** Forward: (B, 9, C, ph, pw) -> (B, n_perm) logits. */
    Tensor forward(const Tensor& patches, bool training = false);

    /** Stateless forward(patches, false) via Network::infer. */
    Tensor infer(const Tensor& patches) const;

    /**
     * Trunk features of every tile of @p images (B, C, H, W), in grid
     * order: (B*9, F), row n*9 + t holding tile t of image n. The trunk
     * sees each tile on its own, so these rows serve every permutation.
     */
    Tensor tile_features(const Tensor& images) const;

    /**
     * Permutation logits (B, n_perm) from tile_features() output:
     * image n's slot s gets the features of tile
     * perms.perm(perm_ids[n])[s], then the head runs. Bit-identical to
     * infer() on the patches make_jigsaw_batch shuffles by the same ids.
     */
    Tensor infer_shuffled(const Tensor& features,
                          const PermutationSet& perms,
                          std::span<const int64_t> perm_ids) const;

    /** Backward through head and (fold-batched) trunk. */
    void backward(const Tensor& grad_logits);

    /** One SGD step on a pretext batch; returns the batch loss. */
    double train_batch(Sgd& opt, const JigsawBatch& batch);

    /** Pretext top-1 accuracy over a batch set. */
    double evaluate(const Tensor& images, const PermutationSet& perms,
                    Rng& rng, int64_t batch_size = 32) const;

    /** Distinct parameters of trunk + head. */
    std::vector<ParameterPtr> params() const;

    /** Zero all gradients. */
    void zero_grad();

    Network& trunk() { return trunk_; }
    const Network& trunk() const { return trunk_; }
    Network& head() { return head_; }
    const Network& head() const { return head_; }

  private:
    Network trunk_;
    Network head_;
    int64_t last_batch_ = 0;
};

} // namespace insitu
