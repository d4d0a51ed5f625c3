/**
 * @file
 * The two In-situ AI tasks that run on the IoT node (§III-C).
 *
 * InferenceTask answers the application query (classification);
 * DiagnosisTask decides, without labels, whether an image is
 * "recognized" by probing the jigsaw pretext: if the shared features
 * cannot solve context prediction on this image, the image is flagged
 * as valuable and queued for upload.
 */
#pragma once

#include <vector>

#include "data/synth.h"
#include "nn/metrics.h"
#include "nn/network.h"
#include "selfsup/jigsaw.h"
#include "util/rng.h"

namespace insitu {

/** The latency-sensitive online classification task. */
class InferenceTask {
  public:
    explicit InferenceTask(Network net) : net_(std::move(net)) {}

    /** Class predictions, processed in memory-bounded chunks. */
    std::vector<int64_t> predict(const Tensor& images,
                                 int64_t batch_size = 32);

    /** Top-1 accuracy against labels. */
    double accuracy(const Dataset& data, int64_t batch_size = 32);

    Network& network() { return net_; }
    const Network& network() const { return net_; }

  private:
    Network net_;
};

/** Diagnosis decision policy. */
struct DiagnosisConfig {
    /// Random jigsaw probes per image.
    int probes = 2;
    /// Flag the image as valuable when at least this many probes fail.
    int fail_threshold = 1;
};

/** The energy-only-constrained data-valuation task. */
class DiagnosisTask {
  public:
    /**
     * @param net jigsaw network (typically weight-shared with the
     *        inference network).
     * @param perms the permutation set the network was trained with.
     */
    DiagnosisTask(JigsawNetwork net, PermutationSet perms,
                  DiagnosisConfig config, uint64_t seed);

    /** Per-image valuable/unrecognized flags. */
    std::vector<bool> diagnose(const Tensor& images,
                               int64_t batch_size = 32);

    /** Fraction of images flagged valuable. */
    double flag_rate(const Tensor& images);

    /**
     * Detector-quality evaluation: score the diagnosis flags against
     * the set of images @p inference actually misclassifies on
     * @p data. Recall is the paper-critical metric — a missed
     * misclassification is an image that never reaches the cloud.
     */
    BinaryMetrics score_against_errors(InferenceTask& inference,
                                       const Dataset& data);

    JigsawNetwork& network() { return net_; }
    const JigsawNetwork& network() const { return net_; }
    const PermutationSet& permutations() const { return perms_; }
    const DiagnosisConfig& config() const { return config_; }

  private:
    JigsawNetwork net_;
    PermutationSet perms_;
    DiagnosisConfig config_;
    Rng rng_;
};

/**
 * The flagged rows of @p data — what a node uploads — with their
 * labels, in ascending index order; the condition carries over.
 */
Dataset flagged_subset(const Dataset& data,
                       const std::vector<bool>& flags);

} // namespace insitu
