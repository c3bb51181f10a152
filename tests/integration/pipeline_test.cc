// End-to-end integration tests: materialize a distributed heterograph
// system, run every framework the paper compares (Global, Local, FedAvg,
// FedDA-Restart, FedDA-Explore), and check the qualitative shape of the
// paper's headline claims on a laptop-scale instance.

#include <gtest/gtest.h>

#include "analysis/efficiency.h"
#include "fl/experiment.h"

namespace fedda {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fl::SystemConfig config;
    config.data = data::AmazonSpec(0.015);
    config.test_fraction = 0.2;
    config.partition.num_clients = 4;
    config.partition.num_specialties = 1;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    // >= num_communities: below that the encoder cannot separate the
    // communities and Global saturates before its data advantage shows.
    config.model.hidden_dim = 16;
    config.model.edge_emb_dim = 4;
    config.seed = 77;
    system_ = new fl::FederatedSystem(fl::FederatedSystem::Build(config));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static fl::FlOptions Options(fl::FlAlgorithm algorithm, int rounds) {
    fl::FlOptions options;
    options.algorithm = algorithm;
    options.rounds = rounds;
    options.local.local_epochs = 1;
    options.local.learning_rate = 5e-3f;
    options.eval.mrr_negatives = 5;
    options.eval.max_edges = 128;
    options.eval_every_round = false;
    return options;
  }

  static fl::FederatedSystem* system_;
};

fl::FederatedSystem* PipelineTest::system_ = nullptr;

TEST_F(PipelineTest, FederatedTrainingBeatsChance) {
  const fl::FlRunResult result =
      RunFederated(*system_, Options(fl::FlAlgorithm::kFedAvg, 10), 1);
  EXPECT_GT(result.final_auc, 0.6);
  EXPECT_GT(result.final_mrr, 0.4);
}

TEST_F(PipelineTest, FedDaMatchesFedAvgQualityWithLessCommunication) {
  const int rounds = 10;
  const fl::FlRunResult fedavg =
      RunFederated(*system_, Options(fl::FlAlgorithm::kFedAvg, rounds), 2);
  const fl::FlRunResult restart = RunFederated(
      *system_, Options(fl::FlAlgorithm::kFedDaRestart, rounds), 2);
  const fl::FlRunResult explore = RunFederated(
      *system_, Options(fl::FlAlgorithm::kFedDaExplore, rounds), 2);

  // RQ2: both strategies transmit strictly less than FedAvg.
  EXPECT_LT(fl::SumOver(restart.history, &fl::RoundRecord::uplink_groups),
            fl::SumOver(fedavg.history, &fl::RoundRecord::uplink_groups));
  EXPECT_LT(fl::SumOver(explore.history, &fl::RoundRecord::uplink_groups),
            fl::SumOver(fedavg.history, &fl::RoundRecord::uplink_groups));
  // RQ1 (weak form at this scale): quality within a few points of FedAvg.
  EXPECT_GT(restart.final_auc, fedavg.final_auc - 0.1);
  EXPECT_GT(explore.final_auc, fedavg.final_auc - 0.1);
}

TEST_F(PipelineTest, GlobalUpperBoundsLocal) {
  hgn::TrainOptions train;
  train.local_epochs = 1;
  train.learning_rate = 5e-3f;
  hgn::EvalOptions eval;
  eval.mrr_negatives = 5;
  eval.max_edges = 128;
  // Global must learn every edge type's community pairing while each local
  // specialist only learns its own, so give the budget that lets both
  // converge (paper: 40 rounds).
  const fl::BaselineResult global = RunGlobal(*system_, 30, train, eval, 3);
  const fl::BaselineResult local = RunLocal(*system_, 30, train, eval, 3);
  // Table 2's structural claim: global training with all data dominates
  // isolated local training on biased shards.
  EXPECT_GT(global.auc, local.auc);
  EXPECT_GT(global.auc, 0.6);
}

TEST_F(PipelineTest, MeasuredRatesValidateEfficiencyModel) {
  const int rounds = 10;
  fl::FlOptions options = Options(fl::FlAlgorithm::kFedDaRestart, rounds);
  const fl::FlRunResult result = RunFederated(*system_, options, 4);

  tensor::ParameterStore ref = system_->MakeInitialStore(4);
  const int64_t n = ref.num_groups();
  const int64_t nd = static_cast<int64_t>(ref.DisentangledGroups().size());
  const analysis::MeasuredRates rates =
      analysis::MeasureRates(result, system_->num_clients(), n, nd);

  EXPECT_GT(rates.r_c, 0.0);
  EXPECT_LE(rates.r_c, 1.0);
  EXPECT_LT(rates.comm_ratio, 1.0);

  // Plug the measured rates into Eq. 8/9: the analytic ratio should agree
  // with the simulation to first order (same "saves communication" regime).
  if (rates.r_c < 0.999 && rates.r_p > 0.0 && rates.r_p < 1.0) {
    analysis::EfficiencyParams params;
    params.num_clients = system_->num_clients();
    params.total_params = n;
    params.disentangled_params = nd;
    params.r_c = rates.r_c;
    params.r_p = rates.r_p;
    const double analytic = analysis::RestartCommRatio(params, options.beta_r);
    EXPECT_LT(analytic, 1.0);
    EXPECT_NEAR(analytic, rates.comm_ratio, 0.35);
  }
}

TEST_F(PipelineTest, ScalarGranularityAblationRunsEndToEnd) {
  fl::FlOptions options = Options(fl::FlAlgorithm::kFedDaExplore, 5);
  options.activation.granularity = fl::ActivationGranularity::kScalar;
  const fl::FlRunResult result = RunFederated(*system_, options, 5);
  tensor::ParameterStore ref = system_->MakeInitialStore(5);
  EXPECT_GT(result.final_auc, 0.5);
  // Scalar masking withholds scalars even when every group stays requested.
  EXPECT_LT(fl::SumOver(result.history, &fl::RoundRecord::uplink_scalars),
            static_cast<int64_t>(options.rounds) * system_->num_clients() *
                ref.num_scalars());
}

TEST_F(PipelineTest, Fig2RandomActivationModesRun) {
  // The preliminary study's grid: C and D in {1.0, 0.8, 0.67}. Both random
  // activations must transmit strictly less than full FedAvg.
  const fl::FlRunResult full =
      RunFederated(*system_, Options(fl::FlAlgorithm::kFedAvg, 3), 6);
  for (double fraction : {0.8, 0.67}) {
    fl::FlOptions c_options = Options(fl::FlAlgorithm::kFedAvg, 3);
    c_options.client_fraction = fraction;
    const fl::FlRunResult c_run = RunFederated(*system_, c_options, 6);
    EXPECT_EQ(c_run.history.size(), 3u);
    EXPECT_LT(fl::SumOver(c_run.history, &fl::RoundRecord::uplink_groups),
              fl::SumOver(full.history, &fl::RoundRecord::uplink_groups));

    fl::FlOptions d_options = Options(fl::FlAlgorithm::kFedAvg, 3);
    d_options.param_fraction = fraction;
    const fl::FlRunResult d_run = RunFederated(*system_, d_options, 6);
    EXPECT_LT(fl::SumOver(d_run.history, &fl::RoundRecord::uplink_groups),
              fl::SumOver(full.history, &fl::RoundRecord::uplink_groups));
  }
}

}  // namespace
}  // namespace fedda
