/**
 * @file
 * Self-test of the benchmark's span arithmetic (spans.h) on synthetic
 * span trees with known answers, and of the residual list: every
 * workload's residual must be a printed per-layer metric. Exits 1 on
 * the first wrong answer. Run by `python3 perfbench/run.py --selftest`
 * and at the start of every benchmark run.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics_table.h"
#include "spans.h"

using insitu::obs::SpanRecord;
using perfbench::Interval;

namespace {

int failures = 0;

void
expect_near(double got, double want, const char* what)
{
    if (std::fabs(got - want) > 1e-12) {
        std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
        ++failures;
    }
}

SpanRecord
span(int64_t id, int64_t parent, const char* name, double start,
     double end)
{
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_s = start;
    s.end_s = end;
    return s;
}

SpanRecord
instant(int64_t id, int64_t parent, const char* name, double t)
{
    SpanRecord s = span(id, parent, name, t, t);
    s.instant = true;
    return s;
}

} // namespace

int
main()
{
    // union_length: overlap counted once, clipping, empty intervals.
    expect_near(perfbench::union_length({}, 0, 10), 0, "empty union");
    expect_near(perfbench::union_length({{1, 3}, {2, 5}, {7, 8}}, 0, 10),
                5, "overlapping union");
    expect_near(perfbench::union_length({{-2, 1}, {9, 12}}, 0, 10), 2,
                "clipped union");
    expect_near(perfbench::union_length({{4, 4}, {6, 5}}, 0, 10), 0,
                "degenerate intervals");

    // A stage with three children, one of which has a child of its
    // own and one of which overruns the parent; plus an instant.
    const std::vector<SpanRecord> tree = {
        span(0, -1, "fleet.stage", 0, 10),
        span(1, 0, "cloud.update", 1, 3),
        span(2, 1, "nn.forward", 1.5, 2.5),
        span(3, 0, "storage.snapshot.write", 2, 5),
        span(4, 0, "cloud.pretrain", 7, 8),
        instant(5, 0, "fleet.crash", 9),
        span(6, 0, "cloud.update", 9.5, 11),
        span(7, -1, "fleet.stage", 20, 24),
    };
    // Children of stage 0 cover [1,5) u [7,8) u [9.5,10) = 5.5.
    // Stage 7 has no children: its whole duration is residual.
    const auto stage = perfbench::span_totals(tree, "fleet.stage");
    expect_near(stage.total_s, 14, "stage total");
    expect_near(stage.self_s, (10 - 5.5) + 4, "stage self time");
    if (stage.count != 2) {
        std::printf("FAIL stage count %ld\n", stage.count);
        ++failures;
    }
    const auto upd = perfbench::span_totals(tree, "cloud.update");
    expect_near(upd.total_s, 2 + 1.5, "update total");
    expect_near(upd.self_s, (2 - 1) + 1.5, "update self time");
    expect_near(perfbench::span_totals(tree, "fleet.crash").total_s, 0,
                "instants carry no time");
    expect_near(perfbench::span_totals(tree, "absent").self_s, 0,
                "absent span");

    // Same-name nesting is counted once (the outermost span).
    const std::vector<SpanRecord> nested = {
        span(0, -1, "nn.forward", 0, 4),
        span(1, 0, "nn.forward", 1, 2),
    };
    const auto fwd = perfbench::span_totals(nested, "nn.forward");
    expect_near(fwd.total_s, 4, "nested same-name total");
    expect_near(fwd.self_s, 3, "nested same-name self");

    // Residual of a window the benchmark timed itself: what no
    // matching span covers, prefix match included.
    const std::vector<SpanRecord> serve = {
        span(0, -1, "nn.forward", 1, 2),
        span(1, 0, "nn.forward.layer", 1.2, 1.4),
        span(2, -1, "serving.batch", 0.5, 6),
        span(3, -1, "nn.forward", 5, 7),
    };
    expect_near(perfbench::uncovered_s(serve, "nn.forward", 0, 6), 4,
                "serving residual");
    expect_near(perfbench::uncovered_s({}, "nn.forward", 0, 6), 6,
                "residual with no spans is the whole window");

    // Every residual a workload names is printed.
    for (const char* r : perfbench::kResiduals) {
        bool found = false;
        for (const auto& m : perfbench::kPerLayer)
            found = found || std::string(m.name) == r;
        if (!found) {
            std::printf("FAIL residual %s is not a per-layer metric\n", r);
            ++failures;
        }
    }

    if (failures == 0) std::printf("perfbench selftest: ok\n");
    return failures == 0 ? 0 : 1;
}
