/**
 * @file
 * The metric names the driver prints, with their units. run.py checks
 * the driver's output against BENCHMARK.json, so a metric added here
 * must be added there too (and the other way round).
 */
#pragma once

namespace perfbench {

struct MetricName {
    const char* name;
    const char* unit;
};

/** Printed with --trace 0, on every workload. */
inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"step_p50_s", "s"},
};

/**
 * Printed with --trace 1, on every workload; a layer a workload does
 * not run reads 0. Times are totals per episode (one set-up plus its
 * timed steps), counts likewise.
 */
inline constexpr MetricName kPerLayer[] = {
    {"tensor.matmul.gflop", "GFLOP"},
    {"tensor.matmul.calls", "count"},
    {"nn.forward.conv.time_s", "s"},
    {"nn.forward.linear.time_s", "s"},
    {"nn.forward.maxpool.time_s", "s"},
    {"nn.forward.relu.time_s", "s"},
    {"nn.forward.flatten.time_s", "s"},
    {"nn.backward.conv.time_s", "s"},
    {"nn.backward.linear.time_s", "s"},
    {"nn.backward.maxpool.time_s", "s"},
    {"nn.backward.relu.time_s", "s"},
    {"nn.backward.flatten.time_s", "s"},
    {"cloud.pretrain.s", "s"},
    {"cloud.update.s", "s"},
    {"cloud.validated_update.s", "s"},
    {"cloud.update.self_s", "s"},
    {"cloud.update.accept_ratio", "ratio"},
    {"fleet.stage.self_s", "s"},
    {"iot.uplink.delivered_ratio", "ratio"},
    {"iot.uplink.retransmits", "count"},
    {"storage.snapshot.write.s", "s"},
    {"storage.snapshot.writes", "count"},
    {"storage.wal.appends", "count"},
    {"serving.run.self_s", "s"},
    {"serving.batches", "count"},
    {"serving.batch.mean", "count"},
    {"serving.calib.fits", "count"},
    {"serving.weights.swapped", "count"},
    {"serving.real.predictions", "count"},
    {"fleet_engine.stage_s.p50", "s"},
    {"fleet.shard.events", "count"},
    {"fleet.shard.hot_allocs", "count"},
    {"parallel.runs", "count"},
    {"parallel.chunks", "count"},
    {"quality_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.overhead_iqr_pct", "%"},
};

/**
 * The residual each workload names instead of hiding: time no span
 * below it explains. The self-test checks these stay in kPerLayer.
 */
inline constexpr const char* kResiduals[] = {
    "fleet.stage.self_s",       // loop
    "cloud.update.self_s",      // loop
    "serving.run.self_s",       // serve
    "fleet_engine.stage_s.p50", // fleet: no spans inside a stage yet
};

} // namespace perfbench
