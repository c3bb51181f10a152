#include "analysis/efficiency.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fedda::analysis {
namespace {

EfficiencyParams PaperLikeParams() {
  EfficiencyParams p;
  p.num_clients = 16;
  p.total_params = 65;        // DBLP group count (Table 3)
  p.disentangled_params = 8;  // edge embeddings + DistMult relations
  p.r_c = 0.9;
  p.r_p = 0.3;
  return p;
}

TEST(RestartExpectedRoundsTest, MatchesLogFormula) {
  // r_c = 0.9, beta_r = 0.4: log_0.9(0.4) ~ 8.7 -> 9 rounds.
  EXPECT_EQ(RestartExpectedRounds(0.9, 0.4), 9);
  // Exact power: 0.5^2 = 0.25.
  EXPECT_EQ(RestartExpectedRounds(0.5, 0.25), 2);
  EXPECT_EQ(RestartExpectedRounds(0.5, 0.6), 1);
}

TEST(RestartCommTest, RatioBelowOneAndAboveZero) {
  const EfficiencyParams p = PaperLikeParams();
  const double ratio = RestartCommRatio(p, 0.4);
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 1.0);
}

TEST(RestartCommTest, Eq8ClosedFormMatchesDirectSummation) {
  const EfficiencyParams p = PaperLikeParams();
  const double beta_r = 0.4;
  const int t0 = RestartExpectedRounds(p.r_c, beta_r);
  // Direct evaluation of the geometric sums in Eq. 8:
  //   sum_{t=0}^{t0} M N r_c^t - sum_{t=1}^{t0} M N_d (r_c r_p)^t.
  double direct = 0.0;
  for (int t = 0; t <= t0; ++t) {
    direct += p.num_clients * static_cast<double>(p.total_params) *
              std::pow(p.r_c, t);
  }
  for (int t = 1; t <= t0; ++t) {
    direct -= p.num_clients * static_cast<double>(p.disentangled_params) *
              std::pow(p.r_c * p.r_p, t);
  }
  EXPECT_NEAR(RestartExpectedComm(p, beta_r), direct, 1e-6 * direct);
}

TEST(RestartCommTest, MoreDeactivationMeansLessComm) {
  EfficiencyParams low = PaperLikeParams();
  EfficiencyParams high = PaperLikeParams();
  low.r_p = 0.1;
  high.r_p = 0.6;
  EXPECT_GT(RestartExpectedComm(low, 0.4), RestartExpectedComm(high, 0.4));

  // Faster client decay (smaller r_c) shortens the cycle (smaller t0) and
  // lowers the absolute per-cycle communication, while the per-round ratio
  // normalized by t0*M*N *increases* (early full-participation rounds
  // dominate a short cycle).
  low = high = PaperLikeParams();
  low.r_c = 0.95;
  high.r_c = 0.7;
  EXPECT_GT(RestartExpectedRounds(low.r_c, 0.4),
            RestartExpectedRounds(high.r_c, 0.4));
  EXPECT_GT(RestartExpectedComm(low, 0.4), RestartExpectedComm(high, 0.4));
  EXPECT_LT(RestartCommRatio(low, 0.4), RestartCommRatio(high, 0.4));
}

TEST(ExploreCommTest, BoundMatchesEq11) {
  const EfficiencyParams p = PaperLikeParams();
  const double beta_e = 0.667;
  const double expected =
      beta_e - beta_e * p.r_c * p.r_p *
                   (static_cast<double>(p.disentangled_params) /
                    static_cast<double>(p.total_params));
  EXPECT_DOUBLE_EQ(ExploreCommRatioBound(p, beta_e), expected);
  EXPECT_LT(ExploreCommRatioBound(p, beta_e), 1.0);
}

TEST(ExploreCommTest, PerRoundExpectationRespectsBound) {
  const EfficiencyParams p = PaperLikeParams();
  const double beta_e = 0.667;
  // For any gamma and rp_hat >= r_p, the per-round expectation normalized
  // by M*N stays within the Eq. 11 bound.
  for (double gamma : {0.0, 0.3, 0.7, 1.0}) {
    for (double rp_hat : {0.3, 0.5, 0.8}) {
      const double per_round =
          ExploreExpectedCommPerRound(p, beta_e, gamma, rp_hat);
      const double ratio =
          per_round / (p.num_clients * static_cast<double>(p.total_params));
      EXPECT_LE(ratio, ExploreCommRatioBound(p, beta_e) + 1e-9)
          << "gamma=" << gamma << " rp_hat=" << rp_hat;
      EXPECT_GT(ratio, 0.0);
    }
  }
}

TEST(ExploreCommTest, FreshClientsCostFullModel) {
  EfficiencyParams p = PaperLikeParams();
  const double beta_e = 0.667;
  // gamma = 1, rp_hat = r_p: everyone a veteran with rate r_p.
  const double veterans = ExploreExpectedCommPerRound(p, beta_e, 1.0, p.r_p);
  // Lower r_c -> more fresh (full-cost) clients -> more communication.
  EfficiencyParams churny = p;
  churny.r_c = 0.5;
  const double with_churn =
      ExploreExpectedCommPerRound(churny, beta_e, 1.0, p.r_p);
  EXPECT_GT(with_churn, veterans * 0.9);
}

TEST(MeasureRatesTest, ReadsRatesFromRunHistory) {
  fl::FlRunResult result;
  // 2 rounds, 4 clients, N=10 groups, N_d=4.
  for (int t = 0; t < 2; ++t) {
    fl::RoundRecord r;
    r.round = t;
    r.participants = 4;
    r.active_after_round = 3;
    // Each participant sends 8 of 10 groups (2 of 4 disentangled withheld).
    r.uplink_groups = 4 * 8;
    result.history.push_back(r);
  }
  const MeasuredRates rates = MeasureRates(result, 4, 10, 4);
  EXPECT_DOUBLE_EQ(rates.r_c, 0.75);
  EXPECT_DOUBLE_EQ(rates.r_p, 0.5);
  EXPECT_DOUBLE_EQ(rates.comm_ratio, 64.0 / 80.0);
}

TEST(MeasureRatesTest, EmptyHistoryIsSafe) {
  const MeasuredRates rates = MeasureRates(fl::FlRunResult{}, 4, 10, 4);
  EXPECT_EQ(rates.r_c, 0.0);
  EXPECT_EQ(rates.comm_ratio, 0.0);
}

TEST(EfficiencyDeathTest, InvalidParamsAbort) {
  EfficiencyParams p = PaperLikeParams();
  p.r_c = 1.0;
  EXPECT_DEATH(RestartExpectedComm(p, 0.4), "r_c");
  p = PaperLikeParams();
  p.disentangled_params = p.total_params + 1;
  EXPECT_DEATH(ExploreCommRatioBound(p, 0.5), "");
  p = PaperLikeParams();
  EXPECT_DEATH(ExploreExpectedCommPerRound(p, 0.5, 0.5, p.r_p - 0.1),
               "rp_hat");
}

}  // namespace
}  // namespace fedda::analysis
