// The worker_threads option must not change results: client RNG streams are
// split before any update starts, clients write only their own stores, and
// the tensor kernels (which share the same pool for row-level parallelism)
// partition work so every accumulation order matches the sequential path.

#include <tuple>

#include <gtest/gtest.h>

#include "fl/experiment.h"

namespace fedda::fl {
namespace {

SystemConfig SmallConfig() {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 4;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 121;
  return config;
}

FlOptions Options(FlAlgorithm algorithm, int workers) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 4;
  options.local.local_epochs = 1;
  options.eval.max_edges = 48;
  options.eval.mrr_negatives = 3;
  options.worker_threads = workers;
  return options;
}

void ExpectBitIdentical(const FlRunResult& a, const FlRunResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t t = 0; t < a.history.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.history[t].auc, b.history[t].auc);
    EXPECT_DOUBLE_EQ(a.history[t].mrr, b.history[t].mrr);
    EXPECT_DOUBLE_EQ(a.history[t].mean_local_loss,
                     b.history[t].mean_local_loss);
    EXPECT_EQ(a.history[t].uplink_scalars, b.history[t].uplink_scalars);
    EXPECT_EQ(a.history[t].max_uplink_scalars,
              b.history[t].max_uplink_scalars);
  }
  EXPECT_EQ(SumOver(a.history, &RoundRecord::max_uplink_scalars),
            SumOver(b.history, &RoundRecord::max_uplink_scalars));
}

class ParallelClientsTest
    : public ::testing::TestWithParam<FlAlgorithm> {};

TEST_P(ParallelClientsTest, PooledRunsBitIdenticalToSequential) {
  // worker_threads in {0, 1, 4}: the acceptance matrix. 0 never touches the
  // pool, 1 exercises the chunked path with a lone worker, 4 exercises real
  // contention; all three must agree bit-for-bit.
  const FederatedSystem system = FederatedSystem::Build(SmallConfig());
  const FlRunResult sequential =
      RunFederated(system, Options(GetParam(), 0), 7);
  const FlRunResult one_worker =
      RunFederated(system, Options(GetParam(), 1), 7);
  const FlRunResult four_workers =
      RunFederated(system, Options(GetParam(), 4), 7);
  ExpectBitIdentical(sequential, one_worker);
  ExpectBitIdentical(sequential, four_workers);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ParallelClientsTest,
                         ::testing::Values(FlAlgorithm::kFedAvg,
                                           FlAlgorithm::kFedDaRestart,
                                           FlAlgorithm::kFedDaExplore));

}  // namespace
}  // namespace fedda::fl
