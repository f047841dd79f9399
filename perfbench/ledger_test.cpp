// Unit tests for the benchmark driver's own arithmetic (ledger.hpp).
#include "ledger.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Ledger, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Ledger, TailLeavesTenSamplesBeyond) {
  // 100 samples: rank 90 has exactly 10 beyond it -> p90, value 90.
  Tail t = tail(one_to(100));
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  // 1000 samples -> p99.
  t = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  // 32 samples -> rank 22, p68.75.
  t = tail(one_to(32));
  EXPECT_DOUBLE_EQ(t.percentile, 68.75);
  EXPECT_DOUBLE_EQ(t.value, 22.0);
}

TEST(Ledger, TailFallsBackToMedianWithTooFewSamples) {
  const Tail t = tail(one_to(15));
  EXPECT_EQ(t.samples, 15u);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 8.0);
  EXPECT_DOUBLE_EQ(tail({}).value, 0.0);
}

TEST(Ledger, StepsFromTaskEndsUseTheLastTaskOfEachGroup) {
  // Two iterations; the group is the iteration, events arrive unordered.
  const std::vector<std::pair<std::int64_t, double>> ends = {
      {2, 0.9}, {1, 0.2}, {1, 0.5}, {2, 0.7}, {1, 0.4}};
  const auto steps = steps_from_task_ends(ends, 0.0);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0], 0.5);
  EXPECT_DOUBLE_EQ(steps[1], 0.4);
}

TEST(Ledger, StepsFromCallbacksAreSuccessiveDifferences) {
  const auto steps = steps_from_callbacks(10.0, {10.5, 11.0, 12.5});
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_DOUBLE_EQ(steps[0], 0.5);
  EXPECT_DOUBLE_EQ(steps[1], 0.5);
  EXPECT_DOUBLE_EQ(steps[2], 1.5);
}

TEST(Ledger, StepsFromCompletionsCutAtCumulativeTaskCounts) {
  // Steps of 2, 3 and 2 tasks; the last step never finished.
  const std::vector<double> done = {1.0, 2.0, 3.0, 4.0, 6.0, 7.0};
  const auto steps = steps_from_completions(0.0, done, {2, 3, 2});
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0], 2.0);  // 2nd completion
  EXPECT_DOUBLE_EQ(steps[1], 4.0);  // 5th completion (6.0) - 2.0
}

TEST(Ledger, UnionLengthMergesOverlaps) {
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}, {5.5, 5.7}}), 4.0);
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{2, 1}}), 0.0);  // empty interval
}

TEST(Ledger, SelfTimeIsSpanMinusUnionOfClippedChildren) {
  // Children overlap each other and stick out of the span on both sides.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{-2, 1}, {3, 6}, {5, 7}, {9, 12}}), 4.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{-5, 20}}), 0.0);
}

TEST(Ledger, LayerSelfTimesSubtractOnlyDeeperLayersOnTheSameNode) {
  const std::vector<LayerSpan> spans = {
      {0, -1, {0, 10}},  // whole-process span: every node's spans are children
      {1, 0, {1, 5}},    // node 0, layer 1
      {2, 0, {2, 3}},    // child of the layer-1 span on node 0
      {2, 1, {4, 8}},    // node 1: not a child of the node-0 span
      {1, 0, {2, 4}},    // same layer as (1,0,[1,5]): never its child
  };
  const auto self = layer_self_times(spans, 3);
  ASSERT_EQ(self.size(), 3u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 7.0);                // minus [1,8]
  EXPECT_DOUBLE_EQ(self[1], (4.0 - 1.0) + (2.0 - 1.0));  // both minus [2,3]
  EXPECT_DOUBLE_EQ(self[2], 1.0 + 4.0);
}

TEST(Ledger, RatioBaseMustBePositive) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, -1.0), 0.0);
}

TEST(Ledger, NamedRatiosUseTheirDocumentedBase) {
  // 3 slots busy 1.5 s in total over a 1 s wall interval.
  EXPECT_DOUBLE_EQ(busy_frac(1.5, 1.0, 3), 0.5);
  EXPECT_DOUBLE_EQ(hit_ratio(3.0, 1.0), 0.75);
  EXPECT_DOUBLE_EQ(hit_ratio(0.0, 0.0), 0.0);
  EXPECT_NEAR(overhead_frac(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(overhead_frac(1.1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gflops(2e9, 4.0), 0.5);
}

}  // namespace
}  // namespace perfbench
