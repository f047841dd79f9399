// The benchmark driver's own arithmetic, kept free of any dooc type so it
// can be unit-tested on hand-built inputs: order statistics with the
// sample-count rule, step boundaries from the three places the program
// exposes them, span self time, and ratios with an explicit base.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// The highest percentile that still has `beyond` samples above it. Under
/// the nearest-rank definition the value at rank r (1-based) has n - r
/// samples beyond it, so the answer is rank n - beyond, i.e. percentile
/// 100 (n - beyond) / n. With too few samples for that rule the median is
/// returned and `percentile` says 50.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> samples, std::size_t beyond = 10);

/// Step durations from the end times of tasks tagged with their step
/// (Report.trace events with Task::group = iteration). A step ends when the
/// last of its tasks ends; the first step is measured from `start`.
[[nodiscard]] std::vector<double> steps_from_task_ends(
    const std::vector<std::pair<std::int64_t, double>>& group_end, double start = 0.0);

/// Step durations from a callback fired once per step (Engine's
/// on_job_done): successive differences, the first from `start`.
[[nodiscard]] std::vector<double> steps_from_callbacks(double start,
                                                       const std::vector<double>& times);

/// Step durations from a per-task completion hook (Coordinator's
/// progress_hook): `completions[i]` is the time the (i+1)-th task finished
/// and step s ends at completion number sum(tasks_per_step[0..s]). Exact
/// when steps are separated by a barrier, as the wire workload's are.
/// Steps whose last completion never arrived are dropped.
[[nodiscard]] std::vector<double> steps_from_completions(
    double start, const std::vector<double>& completions,
    const std::vector<std::size_t>& tasks_per_step);

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of the intervals.
[[nodiscard]] double union_length(std::vector<Interval> intervals);

/// A span's self time: its length minus the part of it that the union of
/// its children covers (children are clipped to the span first).
[[nodiscard]] double self_time(const Interval& span, const std::vector<Interval>& children);

/// One span of a trace, tagged with the layer it belongs to. Layers are
/// ordered from outermost (0) inward; a span's children are the spans of
/// every deeper layer that overlap it on the same node, or on any node
/// when the span's node is -1 (a whole-process span).
struct LayerSpan {
  int layer = 0;
  int node = -1;
  Interval iv;
};

/// Summed self time per layer (index = layer), in the spans' time unit.
[[nodiscard]] std::vector<double> layer_self_times(const std::vector<LayerSpan>& spans,
                                                   int num_layers);

/// numerator / base, or 0 when the base is not positive. Every ratio the
/// benchmark prints goes through here or one of the named ratios below, so
/// that its base is explicit.
[[nodiscard]] double ratio(double numerator, double base);

/// Task busy time over the compute capacity of the wall interval:
/// base = wall_s * slots.
[[nodiscard]] double busy_frac(double task_busy_s, double wall_s, int slots);
/// base = hits + misses.
[[nodiscard]] double hit_ratio(double hits, double misses);
/// traced / untraced - 1: base = the untraced time.
[[nodiscard]] double overhead_frac(double traced_s, double untraced_s);
/// flops * 1e-9 / seconds: base = seconds.
[[nodiscard]] double gflops(double flops, double seconds);

}  // namespace perfbench
