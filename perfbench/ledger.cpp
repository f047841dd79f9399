#include "ledger.hpp"

#include <algorithm>
#include <map>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples, std::size_t beyond) {
  Tail t;
  t.samples = samples.size();
  if (samples.size() <= beyond || samples.size() < 2 * beyond) {
    t.value = median(std::move(samples));
    t.percentile = 50.0;
    return t;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = samples.size() - beyond;  // 1-based
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(samples.size());
  return t;
}

std::vector<double> steps_from_task_ends(
    const std::vector<std::pair<std::int64_t, double>>& group_end, double start) {
  std::map<std::int64_t, double> last;
  for (const auto& [group, end] : group_end) {
    auto [it, inserted] = last.emplace(group, end);
    if (!inserted) it->second = std::max(it->second, end);
  }
  std::vector<double> steps;
  double prev = start;
  for (const auto& [group, end] : last) {
    steps.push_back(end - prev);
    prev = end;
  }
  return steps;
}

std::vector<double> steps_from_callbacks(double start, const std::vector<double>& times) {
  std::vector<double> steps;
  double prev = start;
  for (double t : times) {
    steps.push_back(t - prev);
    prev = t;
  }
  return steps;
}

std::vector<double> steps_from_completions(double start, const std::vector<double>& completions,
                                           const std::vector<std::size_t>& tasks_per_step) {
  std::vector<double> steps;
  double prev = start;
  std::size_t done = 0;
  for (std::size_t count : tasks_per_step) {
    done += count;
    if (done == 0 || done > completions.size()) break;
    const double end = completions[done - 1];
    steps.push_back(end - prev);
    prev = end;
  }
  return steps;
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0.0;
  double cur_begin = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.begin) continue;
    if (!open || iv.begin > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = iv.begin;
      cur_end = iv.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

double self_time(const Interval& span, const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    const Interval x{std::max(c.begin, span.begin), std::min(c.end, span.end)};
    if (x.end > x.begin) clipped.push_back(x);
  }
  return std::max(0.0, span.end - span.begin) - union_length(std::move(clipped));
}

std::vector<double> layer_self_times(const std::vector<LayerSpan>& spans, int num_layers) {
  std::vector<double> out(static_cast<std::size_t>(std::max(num_layers, 0)), 0.0);
  // Sort candidate children by start so each span scans only those that
  // begin before it ends.
  std::vector<const LayerSpan*> by_begin;
  by_begin.reserve(spans.size());
  for (const LayerSpan& s : spans) by_begin.push_back(&s);
  std::sort(by_begin.begin(), by_begin.end(),
            [](const LayerSpan* a, const LayerSpan* b) { return a->iv.begin < b->iv.begin; });
  // Longest span seen so far bounds how far back a child can start.
  double max_len = 0.0;
  for (const LayerSpan& s : spans) max_len = std::max(max_len, s.iv.end - s.iv.begin);

  std::vector<Interval> children;
  for (const LayerSpan& s : spans) {
    if (s.layer < 0 || s.layer >= num_layers) continue;
    children.clear();
    auto it = std::lower_bound(by_begin.begin(), by_begin.end(), s.iv.begin - max_len,
                               [](const LayerSpan* a, double v) { return a->iv.begin < v; });
    for (; it != by_begin.end() && (*it)->iv.begin < s.iv.end; ++it) {
      const LayerSpan& c = **it;
      if (c.layer <= s.layer) continue;
      if (s.node >= 0 && c.node != s.node) continue;
      if (c.iv.end <= s.iv.begin) continue;
      children.push_back(c.iv);
    }
    out[static_cast<std::size_t>(s.layer)] += self_time(s.iv, children);
  }
  return out;
}

double ratio(double numerator, double base) { return base > 0.0 ? numerator / base : 0.0; }

double busy_frac(double task_busy_s, double wall_s, int slots) {
  return ratio(task_busy_s, wall_s * slots);
}

double hit_ratio(double hits, double misses) { return ratio(hits, hits + misses); }

double overhead_frac(double traced_s, double untraced_s) {
  return untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
}

double gflops(double flops, double seconds) { return ratio(flops * 1e-9, seconds); }

}  // namespace perfbench
