// Parameterized invariant sweeps over the federated runner: for every
// (algorithm, granularity, client count) combination the run must satisfy
// the structural guarantees of Algorithm 1 regardless of the data.

#include <tuple>

#include <gtest/gtest.h>

#include "fl/experiment.h"

namespace fedda::fl {
namespace {

using ParamTuple = std::tuple<FlAlgorithm, ActivationGranularity, int>;

class FlInvariantTest : public ::testing::TestWithParam<ParamTuple> {
 protected:
  static FederatedSystem* BuildSystemFor(int clients) {
    SystemConfig config;
    config.data = data::AmazonSpec(0.012);
    config.test_fraction = 0.2;
    config.partition.num_clients = clients;
    config.partition.num_specialties = 1;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.hidden_dim = 8;
    config.model.edge_emb_dim = 4;
    config.seed = 61;
    return new FederatedSystem(FederatedSystem::Build(config));
  }
};

TEST_P(FlInvariantTest, RunSatisfiesStructuralGuarantees) {
  const auto [algorithm, granularity, clients] = GetParam();
  std::unique_ptr<FederatedSystem> system(BuildSystemFor(clients));

  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 5;
  options.activation.granularity = granularity;
  options.local.local_epochs = 1;
  options.eval.max_edges = 48;
  options.eval.mrr_negatives = 3;

  const FlRunResult result = RunFederated(*system, options, 9);
  tensor::ParameterStore reference = system->MakeInitialStore(9);
  const int64_t n_groups = reference.num_groups();
  const int64_t n_scalars = reference.num_scalars();
  const int64_t nd_scalars = reference.num_disentangled_scalars();

  ASSERT_EQ(result.history.size(), 5u);
  int64_t running_groups = 0;
  for (const RoundRecord& record : result.history) {
    // Participants bounded by the fleet.
    EXPECT_GE(record.participants, 1);
    EXPECT_LE(record.participants, clients);
    EXPECT_GE(record.active_after_round, 1);
    EXPECT_LE(record.active_after_round, clients);

    // Uplink bounded by full-FedAvg for the same participants; never less
    // than the always-transmitted (non-disentangled) portion.
    EXPECT_LE(record.uplink_groups, record.participants * n_groups);
    EXPECT_LE(record.uplink_scalars, record.participants * n_scalars);
    EXPECT_GE(record.uplink_scalars,
              record.participants * (n_scalars - nd_scalars));

    // Metrics valid.
    EXPECT_GE(record.auc, 0.0);
    EXPECT_LE(record.auc, 1.0);
    EXPECT_GE(record.mrr, 0.0);
    EXPECT_LE(record.mrr, 1.0);
    running_groups += record.uplink_groups;
  }
  EXPECT_EQ(SumOver(result.history, &RoundRecord::uplink_groups),
            running_groups);

  // Deterministic replay.
  const FlRunResult replay = RunFederated(*system, options, 9);
  ASSERT_EQ(replay.history.size(), result.history.size());
  for (size_t t = 0; t < result.history.size(); ++t) {
    EXPECT_EQ(replay.history[t].uplink_scalars,
              result.history[t].uplink_scalars);
    EXPECT_DOUBLE_EQ(replay.history[t].auc, result.history[t].auc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsGranularitiesClients, FlInvariantTest,
    ::testing::Combine(
        ::testing::Values(FlAlgorithm::kFedAvg, FlAlgorithm::kFedDaRestart,
                          FlAlgorithm::kFedDaExplore),
        ::testing::Values(ActivationGranularity::kTensor,
                          ActivationGranularity::kScalar),
        ::testing::Values(2, 4, 7)),
    [](const ::testing::TestParamInfo<ParamTuple>& param_info) {
      std::string name = FlAlgorithmName(std::get<0>(param_info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      name += std::get<1>(param_info.param) == ActivationGranularity::kTensor
                  ? "_tensor"
                  : "_scalar";
      name += "_M" + std::to_string(std::get<2>(param_info.param));
      return name;
    });

}  // namespace
}  // namespace fedda::fl
