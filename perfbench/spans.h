/**
 * @file
 * Span arithmetic the benchmark applies to the library's own trace
 * records (obs::SpanRecord): per-name totals, self time and the
 * residual of a timed interval that named spans leave uncovered.
 *
 * Self time of a span is its duration minus the union of its direct
 * children's intervals (clipped to the span). A union, not a sum, so
 * overlapping or partly outside children never count twice and a
 * span with no recorded children keeps its whole duration: a residual
 * is always reported, never dropped.
 */
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/** A closed-open time interval [start, end), seconds. */
struct Interval {
    double start = 0;
    double end = 0;
};

/** Length of the union of @p intervals clipped to [lo, hi). */
double union_length(std::vector<Interval> intervals, double lo,
                    double hi);

/** Totals of every outermost span called @p name: a span nested in
 * another span of the same name is not counted again. */
struct SpanTotals {
    double total_s = 0; ///< summed durations
    double self_s = 0;  ///< summed self times
    long count = 0;     ///< spans counted
};

SpanTotals span_totals(const std::vector<insitu::obs::SpanRecord>& spans,
                       const std::string& name);

/**
 * Part of [lo, hi) that no span whose name starts with @p prefix
 * covers: the residual of a window the benchmark timed itself.
 */
double uncovered_s(const std::vector<insitu::obs::SpanRecord>& spans,
                   const std::string& prefix, double lo, double hi);

} // namespace perfbench
