// Multi-threaded FederatedRunner round-loop stress test, written for the
// ThreadSanitizer job (cmake -DFEDDA_SANITIZE=thread). The round loop is
// where every layer of parallelism meets: client updates fan out across the
// run's ThreadPool, each update recursively drives the tensor kernels'
// row-level waves on the same pool, and evaluation runs more waves between
// rounds. These tests keep the model tiny (TSan is ~10x) but crank the
// thread count above the machine's core count so preemption forces unusual
// interleavings.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fl/experiment.h"

namespace fedda::fl {
namespace {

SystemConfig StressConfig(uint64_t seed) {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 6;
  config.partition.num_specialties = 2;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = seed;
  return config;
}

FlOptions StressOptions(FlAlgorithm algorithm, int workers) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 5;
  options.local.local_epochs = 1;
  options.eval.max_edges = 32;
  options.eval.mrr_negatives = 3;
  options.worker_threads = workers;
  return options;
}

TEST(RunnerStressTest, OversubscribedPoolCompletesAndMatchesSequential) {
  // 8 workers on (typically) fewer cores: every round's client wave is
  // oversubscribed and the nested kernel waves run while all workers are
  // busy. Results must still be bit-identical to the sequential run.
  const FederatedSystem system = FederatedSystem::Build(StressConfig(211));
  const FlRunResult sequential =
      RunFederated(system, StressOptions(FlAlgorithm::kFedDaExplore, 0), 5);
  const FlRunResult pooled =
      RunFederated(system, StressOptions(FlAlgorithm::kFedDaExplore, 8), 5);
  ASSERT_EQ(sequential.history.size(), pooled.history.size());
  for (size_t t = 0; t < sequential.history.size(); ++t) {
    EXPECT_DOUBLE_EQ(sequential.history[t].auc, pooled.history[t].auc);
    EXPECT_DOUBLE_EQ(sequential.history[t].mean_local_loss,
                     pooled.history[t].mean_local_loss);
    EXPECT_EQ(sequential.history[t].uplink_bytes,
              pooled.history[t].uplink_bytes);
    EXPECT_EQ(sequential.history[t].downlink_bytes,
              pooled.history[t].downlink_bytes);
  }
}

TEST(RunnerStressTest, ConcurrentIndependentRuns) {
  // Two full federated runs on separate threads, each with its own pool and
  // its own system. Nothing is shared, so TSan flagging anything here means
  // hidden global state (a static, an unguarded cache) leaked into the
  // round loop or the kernels.
  const FederatedSystem system_a = FederatedSystem::Build(StressConfig(303));
  const FederatedSystem system_b = FederatedSystem::Build(StressConfig(404));
  FlRunResult result_a;
  FlRunResult result_b;
  std::thread run_a([&] {
    result_a =
        RunFederated(system_a, StressOptions(FlAlgorithm::kFedDaRestart, 3), 9);
  });
  std::thread run_b([&] {
    result_b =
        RunFederated(system_b, StressOptions(FlAlgorithm::kFedAvg, 3), 9);
  });
  run_a.join();
  run_b.join();
  EXPECT_EQ(result_a.history.size(), 5u);
  EXPECT_EQ(result_b.history.size(), 5u);
  // And each concurrent run must match its own single-threaded replay.
  const FlRunResult replay_a =
      RunFederated(system_a, StressOptions(FlAlgorithm::kFedDaRestart, 3), 9);
  EXPECT_DOUBLE_EQ(result_a.final_auc, replay_a.final_auc);
  EXPECT_EQ(SumOver(result_a.history, &RoundRecord::uplink_bytes),
            SumOver(replay_a.history, &RoundRecord::uplink_bytes));
}

TEST(RunnerStressTest, DpNoiseAndFailuresUnderPool) {
  // The failure-injection and DP-noise paths draw extra randomness inside
  // the parallel client wave; run them pooled to let TSan watch the RNG
  // splitting discipline.
  const FederatedSystem system = FederatedSystem::Build(StressConfig(505));
  FlOptions options = StressOptions(FlAlgorithm::kFedDaExplore, 4);
  options.client_failure_prob = 0.2;
  options.dp_noise_std = 0.01;
  const FlRunResult result = RunFederated(system, options, 11);
  EXPECT_EQ(result.history.size(), 5u);
  for (const RoundRecord& record : result.history) {
    EXPECT_GE(record.participants, 0);
  }
}

}  // namespace
}  // namespace fedda::fl
