#include "fl/runner.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "fl/experiment.h"

namespace fedda::fl {
namespace {

/// Small shared system for runner tests (Amazon schema, 4 clients).
class RunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SystemConfig config;
    config.data = data::AmazonSpec(0.012);
    config.test_fraction = 0.2;
    config.partition.num_clients = 4;
    config.partition.num_specialties = 1;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.hidden_dim = 8;
    config.model.edge_emb_dim = 4;
    config.seed = 31;
    system_ = new FederatedSystem(FederatedSystem::Build(config));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static FlOptions FastOptions(FlAlgorithm algorithm, int rounds = 4) {
    FlOptions options;
    options.algorithm = algorithm;
    options.rounds = rounds;
    options.local.local_epochs = 1;
    options.local.learning_rate = 2e-3f;
    options.eval.mrr_negatives = 3;
    options.eval.max_edges = 64;
    return options;
  }

  static FederatedSystem* system_;
};

FederatedSystem* RunnerTest::system_ = nullptr;

TEST_F(RunnerTest, FedAvgHistoryAndUplinkAccounting) {
  const FlOptions options = FastOptions(FlAlgorithm::kFedAvg);
  const FlRunResult result = RunFederated(*system_, options, 1);
  ASSERT_EQ(result.history.size(), 4u);

  tensor::ParameterStore ref = system_->MakeInitialStore(1);
  const int64_t n_groups = ref.num_groups();
  const int64_t n_scalars = ref.num_scalars();
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.participants, 4);
    EXPECT_EQ(record.uplink_groups, 4 * n_groups);
    EXPECT_EQ(record.uplink_scalars, 4 * n_scalars);
    EXPECT_EQ(record.active_after_round, 4);
  }
  EXPECT_EQ(SumOver(result.history, &RoundRecord::uplink_groups),
            4 * 4 * n_groups);
}

TEST_F(RunnerTest, FedAvgClientFractionReducesParticipants) {
  FlOptions options = FastOptions(FlAlgorithm::kFedAvg);
  options.client_fraction = 0.5;
  const FlRunResult result = RunFederated(*system_, options, 2);
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.participants, 2);
  }
}

TEST_F(RunnerTest, FedAvgParamFractionReducesUplink) {
  FlOptions options = FastOptions(FlAlgorithm::kFedAvg);
  options.param_fraction = 0.5;
  const FlRunResult result = RunFederated(*system_, options, 3);
  tensor::ParameterStore ref = system_->MakeInitialStore(3);
  const int64_t expected_groups =
      static_cast<int64_t>(std::llround(0.5 * ref.num_groups()));
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.uplink_groups, 4 * expected_groups);
    EXPECT_LT(record.uplink_scalars, 4 * ref.num_scalars());
  }
}

TEST_F(RunnerTest, RunsAreDeterministicGivenSeed) {
  const FlOptions options = FastOptions(FlAlgorithm::kFedDaExplore);
  const FlRunResult a = RunFederated(*system_, options, 5);
  const FlRunResult b = RunFederated(*system_, options, 5);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t t = 0; t < a.history.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.history[t].auc, b.history[t].auc);
    EXPECT_EQ(a.history[t].uplink_groups, b.history[t].uplink_groups);
    EXPECT_EQ(a.history[t].active_after_round,
              b.history[t].active_after_round);
  }
  EXPECT_DOUBLE_EQ(a.final_auc, b.final_auc);
}

TEST_F(RunnerTest, DifferentSeedsDiffer) {
  const FlOptions options = FastOptions(FlAlgorithm::kFedAvg, 2);
  const FlRunResult a = RunFederated(*system_, options, 7);
  const FlRunResult b = RunFederated(*system_, options, 8);
  EXPECT_NE(a.final_auc, b.final_auc);
}

TEST_F(RunnerTest, FedDaReducesCommunicationVsFedAvg) {
  const int rounds = 6;
  const FlRunResult fedavg =
      RunFederated(*system_, FastOptions(FlAlgorithm::kFedAvg, rounds), 11);
  const FlRunResult restart = RunFederated(
      *system_, FastOptions(FlAlgorithm::kFedDaRestart, rounds), 11);
  const FlRunResult explore = RunFederated(
      *system_, FastOptions(FlAlgorithm::kFedDaExplore, rounds), 11);
  EXPECT_LT(SumOver(restart.history, &RoundRecord::uplink_groups),
            SumOver(fedavg.history, &RoundRecord::uplink_groups));
  EXPECT_LT(SumOver(explore.history, &RoundRecord::uplink_groups),
            SumOver(fedavg.history, &RoundRecord::uplink_groups));
}

TEST_F(RunnerTest, FedDaRestartKeepsActiveSetAboveFloorOrRestarts) {
  FlOptions options = FastOptions(FlAlgorithm::kFedDaRestart, 8);
  options.beta_r = 0.5;
  const FlRunResult result = RunFederated(*system_, options, 13);
  for (const RoundRecord& record : result.history) {
    // After each round the set either stayed >= beta_r * M or was restarted
    // to all clients.
    EXPECT_GE(record.active_after_round, 2);
    EXPECT_GE(record.participants, 1);
  }
}

TEST_F(RunnerTest, FedDaExploreMaintainsQuota) {
  FlOptions options = FastOptions(FlAlgorithm::kFedDaExplore, 8);
  options.beta_e = 0.75;  // target 3 of 4
  const FlRunResult result = RunFederated(*system_, options, 17);
  for (size_t t = 0; t + 1 < result.history.size(); ++t) {
    // Explore refills toward the quota; with exclusions it can undershoot
    // by the just-deactivated clients but never empties.
    EXPECT_GE(result.history[t].active_after_round, 1);
  }
}

TEST_F(RunnerTest, EvalEveryRoundOffOnlyScoresLastRound) {
  FlOptions options = FastOptions(FlAlgorithm::kFedAvg, 3);
  options.eval_every_round = false;
  const FlRunResult result = RunFederated(*system_, options, 19);
  EXPECT_EQ(result.history[0].auc, 0.0);
  EXPECT_EQ(result.history[1].auc, 0.0);
  EXPECT_GT(result.history[2].auc, 0.0);
  EXPECT_EQ(result.final_auc, result.history[2].auc);
}

TEST_F(RunnerTest, MetricsStayInValidRanges) {
  const FlRunResult result =
      RunFederated(*system_, FastOptions(FlAlgorithm::kFedDaExplore, 5), 23);
  for (const RoundRecord& record : result.history) {
    EXPECT_GE(record.auc, 0.0);
    EXPECT_LE(record.auc, 1.0);
    EXPECT_GE(record.mrr, 0.0);
    EXPECT_LE(record.mrr, 1.0);
    EXPECT_GE(record.mean_local_loss, 0.0);
    EXPECT_GT(record.uplink_groups, 0);
    // SimulateTiming relies on this: a round that trained measured bytes.
    if (record.participants > 0) {
      EXPECT_GT(record.max_uplink_bytes, 0);
    }
  }
}

TEST_F(RunnerTest, FedAvgMeasuredBytesMatchDenseBroadcast) {
  const FlOptions options = FastOptions(FlAlgorithm::kFedAvg);
  const FlRunResult result = RunFederated(*system_, options, 29);
  tensor::ParameterStore ref = system_->MakeInitialStore(29);
  const int64_t n_scalars = ref.num_scalars();
  for (const RoundRecord& record : result.history) {
    // Full participation, full model: the downlink re-ships every group to
    // every participant each round, so covered scalars match the uplink.
    EXPECT_EQ(record.downlink_scalars, 4 * n_scalars);
    EXPECT_EQ(record.max_downlink_scalars, n_scalars);
    // Measured bytes are scalars plus real header/entry overhead.
    EXPECT_GT(record.uplink_bytes, 4 * record.uplink_scalars);
    EXPECT_GT(record.downlink_bytes, 4 * record.downlink_scalars);
    EXPECT_GE(record.max_uplink_bytes, 4 * n_scalars);
    EXPECT_GE(record.max_downlink_bytes, 4 * n_scalars);
  }
  EXPECT_EQ(SumOver(result.history, &RoundRecord::downlink_scalars),
            4 * 4 * n_scalars);
  EXPECT_GT(SumOver(result.history, &RoundRecord::uplink_bytes), 0);
  EXPECT_GT(SumOver(result.history, &RoundRecord::downlink_bytes), 0);
}

TEST_F(RunnerTest, FedDaDownlinkIsCheaperThanFullBroadcast) {
  const int rounds = 6;
  const FlRunResult fedavg =
      RunFederated(*system_, FastOptions(FlAlgorithm::kFedAvg, rounds), 11);
  const FlRunResult explore = RunFederated(
      *system_, FastOptions(FlAlgorithm::kFedDaExplore, rounds), 11);
  // The honest downlink model ships strictly less than the legacy
  // rounds x participants x model_bytes broadcast charge.
  int64_t participant_rounds = 0;
  for (const RoundRecord& record : explore.history) {
    participant_rounds += record.participants;
    EXPECT_LE(record.downlink_bytes, record.uplink_bytes);
  }
  EXPECT_LT(SumOver(explore.history, &RoundRecord::downlink_bytes),
            participant_rounds * fedavg.history[0].max_downlink_bytes);
  EXPECT_LT(SumOver(explore.history, &RoundRecord::downlink_bytes),
            SumOver(fedavg.history, &RoundRecord::downlink_bytes));
  EXPECT_LT(SumOver(explore.history, &RoundRecord::uplink_bytes),
            SumOver(fedavg.history, &RoundRecord::uplink_bytes));
}

TEST_F(RunnerTest, AllFailedRoundReportsNaNLossNotZero) {
  // Regression: a round where every participant fails used to leave
  // mean_local_loss at 0.0, which reads as a *perfect* loss downstream
  // (averages, convergence CSVs). It must be NaN.
  FlOptions options = FastOptions(FlAlgorithm::kFedAvg, 2);
  options.client_failure_prob = 1.0;  // everyone always fails
  const FlRunResult result = RunFederated(*system_, options, 37);
  ASSERT_EQ(result.history.size(), 2u);
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.participants, 0);
    EXPECT_TRUE(std::isnan(record.mean_local_loss));
    EXPECT_EQ(record.uplink_bytes, 0);
    EXPECT_EQ(record.downlink_bytes, 0);
  }
}

TEST_F(RunnerTest, EmptiedActiveSetForcesReactivationInsteadOfAborting) {
  // Regression: alpha = 1.0 deactivates any client that lost a single
  // unit — at scalar granularity a client survives only by beating the
  // mean on *every* scalar, so round 0 deactivates everyone — and
  // beta_r = 0.0 disables the Restart window (active < 0 never holds), so
  // DeactivateLowOccupancy empties the active set. The old runner hit
  // FEDDA_CHECK(!participants.empty()) and aborted the process; now the
  // server forces a full reactivation and records it.
  FlOptions options = FastOptions(FlAlgorithm::kFedDaRestart, 8);
  options.beta_r = 0.0;
  options.activation.alpha = 1.0;
  options.activation.granularity = ActivationGranularity::kScalar;
  const FlRunResult result = RunFederated(*system_, options, 43);
  ASSERT_EQ(result.history.size(), 8u);
  bool any_forced = false;
  for (const RoundRecord& record : result.history) {
    EXPECT_GE(record.participants, 1);
    any_forced = any_forced || record.forced_reactivation;
  }
  EXPECT_TRUE(any_forced);
  // Every forced reactivation is also visible as an event.
  size_t reactivation_events = 0;
  for (const Event& event : result.events) {
    if (event.kind == EventKind::kReactivation) ++reactivation_events;
  }
  EXPECT_GT(reactivation_events, 0u);
}

TEST(FlAlgorithmNameTest, Names) {
  EXPECT_STREQ(FlAlgorithmName(FlAlgorithm::kFedAvg), "FedAvg");
  EXPECT_STREQ(FlAlgorithmName(FlAlgorithm::kFedDaRestart), "FedDA-Restart");
  EXPECT_STREQ(FlAlgorithmName(FlAlgorithm::kFedDaExplore), "FedDA-Explore");
}

TEST(FirstFieldDifferenceTest, NamesTheFirstDifferingFieldOrEvent) {
  FlRunResult a;
  a.history.resize(2);
  a.history[1].round = 1;
  a.events.push_back(Event{0.5, EventKind::kArrival, 3, 1, 7});
  FlRunResult b = a;
  EXPECT_EQ(FirstFieldDifference(a, b), "");

  // A straggler maximum and an event: fields that neither transport
  // comparison checked before both compared every rendered line.
  b.history[1].max_downlink_bytes = 9;
  const std::string round_diff = FirstFieldDifference(a, b);
  EXPECT_EQ(round_diff.rfind("line 5: ds=0 mds=0 db=0 mdb=0 ", 0), 0u)
      << round_diff;
  EXPECT_NE(round_diff.find("| ds=0 mds=0 db=0 mdb=9 "), std::string::npos)
      << round_diff;

  b = a;
  b.events.back().client = 2;
  EXPECT_EQ(FirstFieldDifference(a, b),
            "line 6: arrival c3 r1 t=0.5 #7 | arrival c2 r1 t=0.5 #7");
  b.events.clear();
  EXPECT_EQ(FirstFieldDifference(a, b),
            "line 6: arrival c3 r1 t=0.5 #7 | <none>");
}

}  // namespace
}  // namespace fedda::fl
