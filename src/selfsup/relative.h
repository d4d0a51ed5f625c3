/**
 * @file
 * Relative-position context prediction (Doersch et al., the paper's
 * [17]) — the second unsupervised supervisory signal the paper cites
 * alongside the jigsaw task.
 *
 * Sample the center tile and one of its eight neighbors from the 3x3
 * grid; the network sees the (center, neighbor) pair and must predict
 * which of the eight relative positions the neighbor came from. Like
 * the jigsaw task, both patches pass through ONE shared trunk.
 */
#pragma once

#include <vector>

#include "nn/network.h"
#include "nn/optimizer.h"
#include "selfsup/jigsaw.h"

namespace insitu {

class Rng;

/** A relative-position pretext batch. */
struct RelativeBatch {
    Tensor pairs; ///< (B, 2, C, ph, pw): slot 0 center, slot 1 neighbor
    std::vector<int64_t> labels; ///< neighbor position in [0, 8)
};

/** Number of relative-position classes (the 8 neighbors). */
constexpr int kRelativePositions = 8;

/**
 * Build a batch: for each image, extract the 3x3 tiles, keep the
 * center and a uniformly random neighbor.
 */
RelativeBatch make_relative_batch(const Tensor& images, Rng& rng);

/**
 * The relative-position network: a shared per-patch trunk plus an FC
 * head over the concatenated pair embedding. The trunk has exactly
 * the same architecture contract as JigsawNetwork's, so the same
 * transfer/share surgery applies.
 */
class RelativePositionNetwork {
  public:
    /**
     * @param trunk per-patch feature extractor emitting rank-2
     *        features.
     * @param head classifier over (B, 2 * F) producing 8 logits.
     */
    RelativePositionNetwork(Network trunk, Network head);

    /** Forward: (B, 2, C, ph, pw) -> (B, 8) logits. */
    Tensor forward(const Tensor& pairs, bool training = false);

    /** Stateless forward(pairs, false) via Network::infer. */
    Tensor infer(const Tensor& pairs) const;

    /** Backward through head and the batch-folded trunk. */
    void backward(const Tensor& grad_logits);

    /** One SGD step on a pretext batch; returns the batch loss. */
    double train_batch(Sgd& opt, const RelativeBatch& batch);

    /** Pretext top-1 accuracy over an image set. */
    double evaluate(const Tensor& images, Rng& rng,
                    int64_t batch_size = 32) const;

    std::vector<ParameterPtr> params() const;
    void zero_grad();

    Network& trunk() { return trunk_; }
    const Network& trunk() const { return trunk_; }
    Network& head() { return head_; }

  private:
    Network trunk_;
    Network head_;
    int64_t last_batch_ = 0;
};

} // namespace insitu
