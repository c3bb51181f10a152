// Weighted-aggregation option and FL-level checkpointing integration.

#include <cstdio>

#include <gtest/gtest.h>

#include "fl/experiment.h"
#include "tensor/checkpoint.h"

namespace fedda::fl {
namespace {

SystemConfig SmallConfig(int clients = 4) {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = clients;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 81;
  return config;
}

FlOptions FastOptions(int rounds = 3) {
  FlOptions options;
  options.rounds = rounds;
  options.local.local_epochs = 1;
  options.eval.max_edges = 48;
  options.eval.mrr_negatives = 3;
  return options;
}

TEST(WeightedAggregationTest, ChangesAggregateWhenShardsDiffer) {
  // DBLP's five unevenly sized edge types with random specialty counts
  // guarantee unequal task-edge counts across clients.
  SystemConfig dblp_config = SmallConfig();
  dblp_config.data = data::DblpSpec(0.003);
  dblp_config.partition.num_specialties = 0;
  const FederatedSystem system = FederatedSystem::Build(dblp_config);
  // Shard sizes genuinely differ (random specialties over unequal types).
  bool sizes_differ = false;
  for (size_t i = 1; i < system.shards().size(); ++i) {
    sizes_differ = sizes_differ || system.shards()[i].task_edges.size() !=
                                       system.shards()[0].task_edges.size();
  }
  ASSERT_TRUE(sizes_differ);

  FlOptions uniform = FastOptions();
  const FlRunResult base = RunFederated(system, uniform, 1);
  FlOptions weighted = FastOptions();
  weighted.weighted_aggregation = true;
  const FlRunResult result = RunFederated(system, weighted, 1);
  EXPECT_NE(base.final_auc, result.final_auc);
  // Accounting is independent of the weighting.
  EXPECT_EQ(SumOver(base.history, &RoundRecord::uplink_groups),
            SumOver(result.history, &RoundRecord::uplink_groups));
}

TEST(WeightedAggregationTest, WorksUnderFedDaMasks) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  FlOptions options = FastOptions(5);
  options.algorithm = FlAlgorithm::kFedDaExplore;
  options.weighted_aggregation = true;
  const FlRunResult result = RunFederated(system, options, 2);
  EXPECT_GT(result.final_auc, 0.0);
  for (const RoundRecord& record : result.history) {
    EXPECT_GE(record.auc, 0.0);
    EXPECT_LE(record.auc, 1.0);
  }
}

TEST(WeightedAggregationTest, UniformWeightsMatchUnweightedMath) {
  // With identical task counts per client the weighted path must reduce to
  // the uniform mean. Force identical shards via IID partition.
  SystemConfig config = SmallConfig(2);
  config.partition.iid = true;
  const FederatedSystem system = FederatedSystem::Build(config);
  ASSERT_EQ(system.shards()[0].task_edges.size(),
            system.shards()[1].task_edges.size());
  FlOptions uniform = FastOptions(2);
  FlOptions weighted = FastOptions(2);
  weighted.weighted_aggregation = true;
  const FlRunResult a = RunFederated(system, uniform, 5);
  const FlRunResult b = RunFederated(system, weighted, 5);
  for (size_t t = 0; t < a.history.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.history[t].auc, b.history[t].auc);
  }
}

class FlCheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/fedda_fl_checkpoint.ckpt";
};

TEST_F(FlCheckpointTest, TrainedGlobalModelSurvivesSaveRestore) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  // Train briefly, holding onto the final store.
  tensor::ParameterStore store = system.MakeInitialStore(3);
  auto clients = system.MakeClients(store);
  FederatedRunner runner(&system.model(), &system.global(),
                         &system.test_edges(), std::move(clients),
                         FastOptions(3));
  core::Rng rng(7);
  runner.Run(&store, &rng);

  ASSERT_TRUE(tensor::SaveCheckpoint(store, path_).ok());

  // Restore into a fresh store built from a different seed.
  tensor::ParameterStore restored = system.MakeInitialStore(99);
  ASSERT_FALSE(restored.value(0).Equals(store.value(0)));
  ASSERT_TRUE(tensor::RestoreCheckpointValues(path_, &restored).ok());

  // Identical weights -> identical evaluation under the same rng.
  const hgn::MpStructure mp =
      system.model().BuildStructure(system.global());
  hgn::EvalOptions eval;
  eval.mrr_negatives = 3;
  core::Rng e1(11), e2(11);
  const hgn::EvalResult r1 = hgn::EvaluateLinkPrediction(
      system.model(), system.global(), mp, system.test_edges(), &store, eval,
      &e1);
  const hgn::EvalResult r2 = hgn::EvaluateLinkPrediction(
      system.model(), system.global(), mp, system.test_edges(), &restored,
      eval, &e2);
  EXPECT_DOUBLE_EQ(r1.auc, r2.auc);
  EXPECT_DOUBLE_EQ(r1.mrr, r2.mrr);
}

TEST_F(FlCheckpointTest, LoadCheckpointRebuildsFullStore) {
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  tensor::ParameterStore store = system.MakeInitialStore(3);
  ASSERT_TRUE(tensor::SaveCheckpoint(store, path_).ok());
  tensor::ParameterStore loaded;
  ASSERT_TRUE(tensor::LoadCheckpoint(path_, &loaded).ok());
  EXPECT_TRUE(loaded.SameStructure(store));
  EXPECT_EQ(loaded.DisentangledGroups(), store.DisentangledGroups());
}

}  // namespace
}  // namespace fedda::fl
