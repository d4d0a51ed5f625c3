#include "iot/tasks.h"

#include "nn/trainer.h"
#include "tensor/workspace.h"
#include "util/logging.h"

namespace insitu {

std::vector<int64_t>
InferenceTask::predict(const Tensor& images, int64_t batch_size)
{
    INSITU_CHECK(images.rank() == 4, "predict expects NCHW images");
    std::vector<int64_t> out;
    const int64_t n = images.dim(0);
    out.reserve(static_cast<size_t>(n));
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t end = std::min(n, begin + batch_size);
        const Tensor logits = net_.infer(images.slice0(begin, end));
        for (int64_t p : logits.argmax_rows()) out.push_back(p);
    }
    return out;
}

double
InferenceTask::accuracy(const Dataset& data, int64_t batch_size)
{
    if (data.size() == 0) return 0.0;
    const auto preds = predict(data.images, batch_size);
    int64_t correct = 0;
    for (size_t i = 0; i < preds.size(); ++i)
        if (preds[i] == data.labels[i]) ++correct;
    return static_cast<double>(correct) /
           static_cast<double>(preds.size());
}

DiagnosisTask::DiagnosisTask(JigsawNetwork net, PermutationSet perms,
                             DiagnosisConfig config, uint64_t seed)
    : net_(std::move(net)), perms_(std::move(perms)), config_(config),
      rng_(seed)
{
    INSITU_CHECK(config_.probes > 0, "need at least one probe");
    INSITU_CHECK(config_.fail_threshold > 0 &&
                     config_.fail_threshold <= config_.probes,
                 "fail threshold must be in [1, probes]");
}

std::vector<bool>
DiagnosisTask::diagnose(const Tensor& images, int64_t batch_size)
{
    INSITU_CHECK(images.rank() == 4, "diagnose expects NCHW images");
    const int64_t n = images.dim(0);
    const auto count = static_cast<size_t>(n);
    // One permutation per probe per image, drawn probe-major in image
    // order, as one make_jigsaw_batch per probe and chunk would.
    std::vector<int64_t> ids(static_cast<size_t>(config_.probes) * count);
    for (auto& id : ids)
        id = static_cast<int64_t>(
            rng_.next_below(static_cast<uint64_t>(perms_.size())));
    // A probe's permutation only reorders an image's nine tile
    // features, so the trunk runs once per chunk and each probe runs
    // only the head.
    std::vector<int> failures(count, 0);
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t end = std::min(n, begin + batch_size);
        const Tensor features =
            net_.tile_features(images.slice0(begin, end));
        for (int probe = 0; probe < config_.probes; ++probe) {
            const std::span<const int64_t> chunk_ids(
                ids.data() + static_cast<size_t>(probe) * count +
                    static_cast<size_t>(begin),
                static_cast<size_t>(end - begin));
            const auto preds =
                net_.infer_shuffled(features, perms_, chunk_ids)
                    .argmax_rows();
            for (size_t i = 0; i < preds.size(); ++i) {
                if (preds[i] != chunk_ids[i])
                    ++failures[static_cast<size_t>(begin) + i];
            }
        }
    }
    std::vector<bool> flags(count);
    for (size_t i = 0; i < count; ++i)
        flags[i] = failures[i] >= config_.fail_threshold;
    return flags;
}

double
DiagnosisTask::flag_rate(const Tensor& images)
{
    const auto flags = diagnose(images);
    if (flags.empty()) return 0.0;
    int64_t count = 0;
    for (bool f : flags)
        if (f) ++count;
    return static_cast<double>(count) /
           static_cast<double>(flags.size());
}

BinaryMetrics
DiagnosisTask::score_against_errors(InferenceTask& inference,
                                    const Dataset& data)
{
    INSITU_CHECK(data.size() > 0, "cannot score on empty data");
    const auto flags = diagnose(data.images);
    const auto preds = inference.predict(data.images);
    std::vector<bool> truth(static_cast<size_t>(data.size()));
    for (size_t i = 0; i < truth.size(); ++i)
        truth[i] = preds[i] != data.labels[i];
    return BinaryMetrics::score(flags, truth);
}

Dataset
flagged_subset(const Dataset& data, const std::vector<bool>& flags)
{
    INSITU_CHECK(static_cast<int64_t>(flags.size()) == data.size(),
                 "flagged_subset needs one flag per image");
    // The index list rides the thread-local arena and lives for this
    // call only, so a steady-state stage allocates nothing for it.
    Workspace::Scope scope;
    int64_t* idx = Workspace::local().alloc_as<int64_t>(
        static_cast<int64_t>(flags.size()));
    int64_t count = 0;
    for (size_t j = 0; j < flags.size(); ++j)
        if (flags[j]) idx[count++] = static_cast<int64_t>(j);
    Dataset out;
    out.condition = data.condition;
    out.images = gather_rows(data.images, idx, count);
    out.labels.reserve(static_cast<size_t>(count));
    for (int64_t k = 0; k < count; ++k)
        out.labels.push_back(data.labels[static_cast<size_t>(idx[k])]);
    return out;
}

} // namespace insitu
