#include "analysis/efficiency.h"

#include <cmath>

#include "core/check.h"

namespace fedda::analysis {

namespace {

void ValidateParams(const EfficiencyParams& p) {
  FEDDA_CHECK_GT(p.num_clients, 0);
  FEDDA_CHECK_GT(p.total_params, 0);
  FEDDA_CHECK_GE(p.disentangled_params, 0);
  FEDDA_CHECK_LE(p.disentangled_params, p.total_params);
  FEDDA_CHECK(p.r_c > 0.0 && p.r_c < 1.0) << "r_c must be in (0,1)";
  FEDDA_CHECK(p.r_p >= 0.0 && p.r_p < 1.0) << "r_p must be in [0,1)";
}

/// Sum of x^1 + ... + x^t (geometric, x != 1).
double GeometricSum(double x, int t) {
  return x * (1.0 - std::pow(x, t)) / (1.0 - x);
}

}  // namespace

int RestartExpectedRounds(double r_c, double beta_r) {
  FEDDA_CHECK(r_c > 0.0 && r_c < 1.0);
  FEDDA_CHECK(beta_r > 0.0 && beta_r < 1.0);
  // Smallest integer t0 with r_c^t0 <= beta_r.
  const double t0 = std::log(beta_r) / std::log(r_c);
  return std::max(1, static_cast<int>(std::ceil(t0 - 1e-12)));
}

double RestartExpectedComm(const EfficiencyParams& params, double beta_r) {
  ValidateParams(params);
  const int t0 = RestartExpectedRounds(params.r_c, beta_r);
  const double m = params.num_clients;
  const double n = static_cast<double>(params.total_params);
  const double nd = static_cast<double>(params.disentangled_params);
  // Eq. 8: MN * (1 - r_c^{t0+1}) / (1 - r_c)
  //      - MN_d * (r_c r_p - (r_c r_p)^{t0+1}) / (1 - r_c r_p).
  const double full_term =
      m * n * (1.0 - std::pow(params.r_c, t0 + 1)) / (1.0 - params.r_c);
  const double rcrp = params.r_c * params.r_p;
  const double saved_term =
      rcrp > 0.0 ? m * nd * GeometricSum(rcrp, t0) : 0.0;
  return full_term - saved_term;
}

double RestartCommRatio(const EfficiencyParams& params, double beta_r) {
  const int t0 = RestartExpectedRounds(params.r_c, beta_r);
  const double fedavg = static_cast<double>(t0) * params.num_clients *
                        static_cast<double>(params.total_params);
  return RestartExpectedComm(params, beta_r) / fedavg;
}

double ExploreExpectedCommPerRound(const EfficiencyParams& params,
                                   double beta_e, double gamma,
                                   double rp_hat) {
  ValidateParams(params);
  FEDDA_CHECK(beta_e > 0.0 && beta_e <= 1.0);
  FEDDA_CHECK(gamma >= 0.0 && gamma <= 1.0);
  FEDDA_CHECK(rp_hat >= params.r_p && rp_hat < 1.0)
      << "rp_hat must be >= r_p (veterans have deactivated at least as much)";
  const double m = params.num_clients;
  const double n = static_cast<double>(params.total_params);
  const double nd = static_cast<double>(params.disentangled_params);
  // Corrected Eq. 10 (see header): veterans (gamma) transmit N - r_p N_d,
  // longer-standing actives transmit N - rp_hat N_d, and freshly explored
  // clients ((1 - r_c) of the quota) transmit the full N.
  return m * beta_e * params.r_c * gamma * (n - params.r_p * nd) +
         m * beta_e * params.r_c * (1.0 - gamma) * (n - rp_hat * nd) +
         m * n * beta_e * (1.0 - params.r_c);
}

double ExploreCommRatioBound(const EfficiencyParams& params, double beta_e) {
  ValidateParams(params);
  FEDDA_CHECK(beta_e > 0.0 && beta_e <= 1.0);
  const double nd_over_n = static_cast<double>(params.disentangled_params) /
                           static_cast<double>(params.total_params);
  // Eq. 11.
  return beta_e - beta_e * params.r_c * params.r_p * nd_over_n;
}

MeasuredRates MeasureRates(const fl::FlRunResult& result, int num_clients,
                           int64_t total_params,
                           int64_t disentangled_params) {
  FEDDA_CHECK_GT(num_clients, 0);
  FEDDA_CHECK_GT(total_params, 0);
  FEDDA_CHECK_GT(disentangled_params, 0);
  MeasuredRates rates;
  if (result.history.empty()) return rates;

  double active_sum = 0.0;
  double deactivated_param_sum = 0.0;
  int64_t client_rounds = 0;
  for (const fl::RoundRecord& record : result.history) {
    active_sum += static_cast<double>(record.active_after_round) /
                  static_cast<double>(num_clients);
    // Per participant, groups withheld this round out of N_d.
    if (record.participants > 0) {
      const double mean_transmitted =
          static_cast<double>(record.uplink_groups) /
          static_cast<double>(record.participants);
      const double withheld =
          static_cast<double>(total_params) - mean_transmitted;
      deactivated_param_sum +=
          withheld / static_cast<double>(disentangled_params) *
          static_cast<double>(record.participants);
      client_rounds += record.participants;
    }
  }
  rates.r_c = active_sum / static_cast<double>(result.history.size());
  rates.r_p = client_rounds > 0
                  ? deactivated_param_sum / static_cast<double>(client_rounds)
                  : 0.0;
  const double fedavg_total = static_cast<double>(result.history.size()) *
                              num_clients *
                              static_cast<double>(total_params);
  rates.comm_ratio =
      static_cast<double>(
          fl::SumOver(result.history, &fl::RoundRecord::uplink_groups)) /
      fedavg_total;
  return rates;
}

}  // namespace fedda::analysis
