// Federated node classification through the task-agnostic runner — the
// paper's conclusion claims dynamic activation generalizes beyond the
// link-prediction setting; this exercises FedAvg and FedDA end-to-end on a
// different objective with a custom evaluator.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/schema.h"
#include "fl/runner.h"
#include "hgn/node_classification.h"
#include "obs/trace.h"

namespace fedda::fl {
namespace {

class NodeClassificationFlTest : public ::testing::Test {
 protected:
  static constexpr int kClasses = 4;
  static constexpr int kClients = 3;

  void SetUp() override {
    data::SyntheticSpec spec = data::AmazonSpec(0.015);
    spec.num_communities = kClasses;
    core::Rng rng(91);
    std::vector<int> raw_labels;
    global_ = data::GenerateGraphWithLabels(spec, &rng, &raw_labels);
    labels_.assign(raw_labels.begin(), raw_labels.end());
    node_split_ = hgn::SplitNodes(global_.num_nodes(), 0.3, &rng);

    hgn::SimpleHgnConfig config;
    config.num_layers = 2;
    config.num_heads = 2;
    config.hidden_dim = 16;
    config.edge_emb_dim = 4;
    model_ = std::make_unique<hgn::SimpleHgn>(
        std::vector<int64_t>{global_.node_type_info(0).feature_dim},
        std::vector<std::string>{"product"},
        std::vector<std::string>{"co-view", "co-purchase"}, config);
    core::Rng init(92);
    model_->InitParameters(&reference_, &init);

    // Global evaluation task (also registers the softmax head).
    eval_task_ = std::make_unique<hgn::NodeClassificationTask>(
        model_.get(), &global_, labels_, node_split_.train, kClasses);
    core::Rng head_rng(93);
    eval_task_->InitHeadParameters(&reference_, &head_rng);
  }

  /// Clients: each holds a biased subgraph (edge subset) and a disjoint
  /// slice of the labeled training nodes.
  std::vector<std::unique_ptr<Client>> MakeClients() {
    std::vector<std::unique_ptr<Client>> clients;
    core::Rng rng(94);
    local_graphs_.clear();
    for (int i = 0; i < kClients; ++i) {
      // Every client sees a random 40% of the global edges.
      std::vector<graph::EdgeId> edges;
      for (graph::EdgeId e = 0; e < global_.num_edges(); ++e) {
        if (rng.Bernoulli(0.4)) edges.push_back(e);
      }
      local_graphs_.push_back(std::make_unique<graph::HeteroGraph>(
          global_.SubgraphFromEdges(edges)));
      // Disjoint label slice.
      std::vector<graph::NodeId> local_nodes;
      for (size_t k = static_cast<size_t>(i); k < node_split_.train.size();
           k += kClients) {
        local_nodes.push_back(node_split_.train[k]);
      }
      auto task = std::make_unique<hgn::NodeClassificationTask>(
          model_.get(), local_graphs_.back().get(), labels_,
          std::move(local_nodes), kClasses);
      core::Rng head_rng(95);
      task->InitHeadParameters(&reference_, &head_rng);  // records ids only
      clients.push_back(
          std::make_unique<Client>(i, std::move(task), reference_));
    }
    return clients;
  }

  FederatedRunner::Evaluator MakeEvaluator() {
    return [this](tensor::ParameterStore* store, core::Rng* rng) {
      const auto result = eval_task_->Evaluate(store, node_split_.eval);
      return std::make_pair(result.accuracy, result.macro_f1);
    };
  }

  graph::HeteroGraph global_;
  std::vector<int32_t> labels_;
  hgn::NodeSplit node_split_;
  std::unique_ptr<hgn::SimpleHgn> model_;
  std::unique_ptr<hgn::NodeClassificationTask> eval_task_;
  std::vector<std::unique_ptr<graph::HeteroGraph>> local_graphs_;
  tensor::ParameterStore reference_;
};

TEST_F(NodeClassificationFlTest, FedAvgLearnsAboveChance) {
  FlOptions options;
  options.rounds = 10;
  options.local.local_epochs = 1;
  options.local.learning_rate = 5e-3f;
  FederatedRunner runner(MakeClients(), MakeEvaluator(), options);
  tensor::ParameterStore store = reference_;
  core::Rng rng(96);
  const FlRunResult result = runner.Run(&store, &rng);
  // record.auc carries accuracy here; chance is 1/4.
  EXPECT_GT(result.final_auc, 0.5);
  EXPECT_GT(result.history.back().auc, result.history.front().auc - 0.05);
}

TEST_F(NodeClassificationFlTest, FedDaSavesCommunicationOnThisTaskToo) {
  FlOptions fedavg_options;
  fedavg_options.rounds = 8;
  fedavg_options.local.learning_rate = 5e-3f;
  FlOptions fedda_options = fedavg_options;
  fedda_options.algorithm = FlAlgorithm::kFedDaExplore;

  tensor::ParameterStore store_a = reference_;
  core::Rng rng_a(97);
  FederatedRunner fedavg(MakeClients(), MakeEvaluator(), fedavg_options);
  const FlRunResult run_a = fedavg.Run(&store_a, &rng_a);

  tensor::ParameterStore store_b = reference_;
  core::Rng rng_b(97);
  FederatedRunner fedda(MakeClients(), MakeEvaluator(), fedda_options);
  const FlRunResult run_b = fedda.Run(&store_b, &rng_b);

  EXPECT_LT(SumOver(run_b.history, &RoundRecord::uplink_groups),
            SumOver(run_a.history, &RoundRecord::uplink_groups));
  EXPECT_GT(run_b.final_auc, 0.4);
}

TEST_F(NodeClassificationFlTest, HeadParametersAreFederated) {
  // After a run, the head weights must differ from the broadcast initial
  // values (i.e. the aggregation covered the task head, not only the
  // encoder).
  FlOptions options;
  options.rounds = 3;
  options.local.learning_rate = 5e-3f;
  FederatedRunner runner(MakeClients(), MakeEvaluator(), options);
  tensor::ParameterStore store = reference_;
  core::Rng rng(98);
  runner.Run(&store, &rng);
  const int head = store.FindByName("head/W");
  ASSERT_GE(head, 0);
  EXPECT_FALSE(store.value(head).Equals(reference_.value(head)));
}

TEST_F(NodeClassificationFlTest, TracedRunRecordsKernelSpansAndIsBitIdentical) {
  // The runner forwards its tracer into TrainOptions; the node-classification
  // step must hand it to its tape like link prediction does, and observing
  // must not move a bit of the history.
  FlOptions options;
  options.algorithm = FlAlgorithm::kFedDaRestart;
  options.rounds = 3;
  options.local.learning_rate = 5e-3f;

  tensor::ParameterStore untraced_store = reference_;
  core::Rng untraced_rng(99);
  FederatedRunner untraced_runner(MakeClients(), MakeEvaluator(), options);
  const FlRunResult untraced = untraced_runner.Run(&untraced_store,
                                                   &untraced_rng);

  obs::Tracer tracer;
  options.tracer = &tracer;
  tensor::ParameterStore traced_store = reference_;
  core::Rng traced_rng(99);
  FederatedRunner traced_runner(MakeClients(), MakeEvaluator(), options);
  const FlRunResult traced = traced_runner.Run(&traced_store, &traced_rng);

  EXPECT_EQ(EveryField(traced), EveryField(untraced));
  std::map<std::string, int> counts;
  for (const obs::Span& span : tracer.Collect()) ++counts[span.name];
  EXPECT_GT(counts["hgn-encode"], 0);
  EXPECT_GT(counts["matmul"], 0);
  EXPECT_GT(counts["backward"], 0);
}

}  // namespace
}  // namespace fedda::fl
