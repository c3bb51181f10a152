// Tests for the deactivation-threshold rules (mean / median / percentile) —
// the "other settings" the paper's Sec. 5.3 footnote leaves to future work.

#include <gtest/gtest.h>

#include "fl/activation.h"

namespace fedda::fl {
namespace {

using tensor::ParameterStore;
using tensor::Tensor;

ParameterStore MakeReference() {
  ParameterStore store;
  store.Register("W", Tensor::Zeros(2, 2));
  store.Register("edge_emb", Tensor::Zeros(1, 1), /*disentangled=*/true);
  return store;
}

ActivationOptions WithRule(ThresholdRule rule, double percentile = 0.25) {
  ActivationOptions options;
  options.threshold_rule = rule;
  options.threshold_percentile = percentile;
  return options;
}

/// Applies one mask update on 5 clients with the given magnitudes for the
/// single maskable unit, and returns which clients kept it active.
std::vector<bool> ApplyAndCollect(const ActivationOptions& options,
                                  const std::vector<double>& magnitudes) {
  ParameterStore ref = MakeReference();
  const int m = static_cast<int>(magnitudes.size());
  ActivationState state(m, ref, options);
  std::vector<int> participants;
  std::vector<std::vector<UnitMagnitude>> mags;
  for (int c = 0; c < m; ++c) {
    participants.push_back(c);
    mags.push_back({magnitudes[static_cast<size_t>(c)]});
  }
  state.UpdateMasks(participants, mags);
  std::vector<bool> active;
  for (int c = 0; c < m; ++c) active.push_back(state.UnitActive(c, 0));
  return active;
}

TEST(ThresholdRuleTest, MeanMatchesPaperBehaviour) {
  // magnitudes 1,2,3,4,10 -> mean 4: clients 0,1,2 deactivated.
  const auto active =
      ApplyAndCollect(WithRule(ThresholdRule::kMean), {1, 2, 3, 4, 10});
  EXPECT_EQ(active, (std::vector<bool>{false, false, false, true, true}));
}

TEST(ThresholdRuleTest, MedianIsRobustToOutliers) {
  // Same magnitudes, median 3: only clients strictly below 3 deactivate —
  // the outlier (10) no longer drags half the fleet below threshold.
  const auto active =
      ApplyAndCollect(WithRule(ThresholdRule::kMedian), {1, 2, 3, 4, 10});
  EXPECT_EQ(active, (std::vector<bool>{false, false, true, true, true}));
}

TEST(ThresholdRuleTest, PercentileControlsAggressiveness) {
  // 20th percentile of 5 entries ranks index 1 (value 2): only client 0
  // falls strictly below.
  const auto low = ApplyAndCollect(
      WithRule(ThresholdRule::kPercentile, 0.2), {1, 2, 3, 4, 10});
  EXPECT_EQ(low, (std::vector<bool>{false, true, true, true, true}));
  // 80th percentile (index 4, value 10): everyone below 10 deactivates.
  const auto high = ApplyAndCollect(
      WithRule(ThresholdRule::kPercentile, 0.8), {1, 2, 3, 4, 10});
  EXPECT_EQ(high, (std::vector<bool>{false, false, false, false, true}));
}

TEST(ThresholdRuleTest, UniformMagnitudesDeactivateNobody) {
  for (ThresholdRule rule : {ThresholdRule::kMean, ThresholdRule::kMedian,
                             ThresholdRule::kPercentile}) {
    const auto active = ApplyAndCollect(WithRule(rule), {5, 5, 5, 5});
    EXPECT_EQ(active, (std::vector<bool>{true, true, true, true}))
        << "rule " << static_cast<int>(rule);
  }
}

TEST(ThresholdRuleTest, SingleContributorNeverSelfDeactivates) {
  for (ThresholdRule rule : {ThresholdRule::kMean, ThresholdRule::kMedian,
                             ThresholdRule::kPercentile}) {
    const auto active = ApplyAndCollect(WithRule(rule), {0.01});
    EXPECT_TRUE(active[0]) << "rule " << static_cast<int>(rule);
  }
}

double Threshold(const ActivationOptions& options,
                 std::vector<double> magnitudes) {
  return ComputeThreshold(&magnitudes, options);
}

TEST(ComputeThresholdTest, MedianAveragesMiddlePairForEvenSets) {
  const ActivationOptions median = WithRule(ThresholdRule::kMedian);
  // Regression: the old implementation returned the upper-middle order
  // statistic (4 here), biasing deactivation upward.
  EXPECT_DOUBLE_EQ(Threshold(median, {1, 2, 4, 10}), 3.0);
  EXPECT_DOUBLE_EQ(Threshold(median, {10, 1, 4, 2}), 3.0);  // order-free
  EXPECT_DOUBLE_EQ(Threshold(median, {2, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Threshold(median, {5, 5, 5, 5}), 5.0);
}

TEST(ComputeThresholdTest, MedianReturnsMiddleElementForOddSets) {
  const ActivationOptions median = WithRule(ThresholdRule::kMedian);
  EXPECT_DOUBLE_EQ(Threshold(median, {1, 2, 3, 4, 10}), 3.0);
  EXPECT_DOUBLE_EQ(Threshold(median, {7}), 7.0);
}

TEST(ComputeThresholdTest, MeanAndPercentileMatchHandComputation) {
  EXPECT_DOUBLE_EQ(Threshold(WithRule(ThresholdRule::kMean), {1, 2, 4, 10}),
                   17.0 / 4.0);
  EXPECT_DOUBLE_EQ(
      Threshold(WithRule(ThresholdRule::kPercentile, 0.2), {1, 2, 3, 4, 10}),
      2.0);
}

}  // namespace
}  // namespace fedda::fl
