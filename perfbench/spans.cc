#include "spans.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

double
union_length(std::vector<Interval> intervals, double lo, double hi)
{
    for (Interval& iv : intervals) {
        iv.start = std::max(iv.start, lo);
        iv.end = std::min(iv.end, hi);
    }
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.start < b.start;
              });
    double covered = 0;
    double cur_start = 0, cur_end = 0;
    bool open = false;
    for (const Interval& iv : intervals) {
        if (iv.end <= iv.start) continue;
        if (open && iv.start <= cur_end) {
            cur_end = std::max(cur_end, iv.end);
            continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = iv.start;
        cur_end = iv.end;
        open = true;
    }
    if (open) covered += cur_end - cur_start;
    return covered;
}

SpanTotals
span_totals(const std::vector<insitu::obs::SpanRecord>& spans,
            const std::string& name)
{
    std::unordered_map<int64_t, size_t> index;
    std::unordered_map<int64_t, std::vector<Interval>> children;
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        index[s.id] = i;
        if (!s.instant && s.parent >= 0)
            children[s.parent].push_back({s.start_s, s.end_s});
    }
    auto nested_in_same_name = [&](const insitu::obs::SpanRecord& s) {
        for (int64_t p = s.parent; p >= 0;) {
            const auto it = index.find(p);
            if (it == index.end()) return false;
            const auto& parent = spans[it->second];
            if (parent.name == s.name) return true;
            p = parent.parent;
        }
        return false;
    };

    SpanTotals t;
    for (const auto& s : spans) {
        if (s.instant || s.name != name || nested_in_same_name(s))
            continue;
        const double dur = s.end_s - s.start_s;
        const auto it = children.find(s.id);
        const double kids =
            it == children.end()
                ? 0.0
                : union_length(it->second, s.start_s, s.end_s);
        t.total_s += dur;
        t.self_s += dur - kids;
        ++t.count;
    }
    return t;
}

double
uncovered_s(const std::vector<insitu::obs::SpanRecord>& spans,
            const std::string& prefix, double lo, double hi)
{
    std::vector<Interval> cover;
    for (const auto& s : spans)
        if (!s.instant && s.name.compare(0, prefix.size(), prefix) == 0)
            cover.push_back({s.start_s, s.end_s});
    return (hi - lo) - union_length(std::move(cover), lo, hi);
}

} // namespace perfbench
