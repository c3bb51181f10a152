#include "fl/experiment.h"

#include <algorithm>

#include "data/generator.h"

namespace fedda::fl {

FederatedSystem FederatedSystem::Build(const SystemConfig& config) {
  core::Rng rng(config.seed);
  FederatedSystem system;
  system.global_ = std::make_unique<graph::HeteroGraph>(
      data::GenerateGraph(config.data, &rng));
  system.split_ =
      graph::SplitEdges(*system.global_, config.test_fraction, &rng);
  system.shards_ = data::PartitionClients(*system.global_,
                                          system.split_.train,
                                          config.partition, &rng);

  std::vector<int64_t> feature_dims;
  std::vector<std::string> node_type_names;
  for (graph::NodeTypeId t = 0; t < system.global_->num_node_types(); ++t) {
    feature_dims.push_back(system.global_->node_type_info(t).feature_dim);
    node_type_names.push_back(system.global_->node_type_info(t).name);
  }
  std::vector<std::string> edge_type_names;
  for (graph::EdgeTypeId t = 0; t < system.global_->num_edge_types(); ++t) {
    edge_type_names.push_back(system.global_->edge_type_info(t).name);
  }
  system.model_ = std::make_unique<hgn::SimpleHgn>(
      std::move(feature_dims), std::move(node_type_names),
      std::move(edge_type_names), config.model);
  return system;
}

tensor::ParameterStore FederatedSystem::MakeInitialStore(
    uint64_t seed) const {
  tensor::ParameterStore store;
  core::Rng rng(seed);
  model_->InitParameters(&store, &rng);
  return store;
}

std::vector<std::unique_ptr<Client>> FederatedSystem::MakeClients(
    const tensor::ParameterStore& reference) const {
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const data::ClientShard& shard = shards_[i];
    graph::HeteroGraph local = global_->SubgraphFromEdges(shard.local_edges);
    // Map task edges (global ids) to local edge ids: SubgraphFromEdges
    // numbers edges by position in shard.local_edges, and both id lists are
    // sorted, so a single merge pass suffices.
    std::vector<graph::EdgeId> local_tasks;
    local_tasks.reserve(shard.task_edges.size());
    size_t j = 0;
    for (size_t k = 0;
         k < shard.local_edges.size() && j < shard.task_edges.size(); ++k) {
      if (shard.local_edges[k] == shard.task_edges[j]) {
        local_tasks.push_back(static_cast<graph::EdgeId>(k));
        ++j;
      }
    }
    FEDDA_CHECK_EQ(j, shard.task_edges.size())
        << "task edges must be a subset of local edges";
    clients.push_back(std::make_unique<Client>(
        static_cast<int>(i), model_.get(), std::move(local),
        std::move(local_tasks), reference));
  }
  return clients;
}

FlRunResult RunFederated(const FederatedSystem& system,
                         const FlOptions& options, uint64_t run_seed) {
  tensor::ParameterStore store = system.MakeInitialStore(run_seed);
  std::vector<std::unique_ptr<Client>> clients = system.MakeClients(store);
  FederatedRunner runner(&system.model(), &system.global(),
                         &system.test_edges(), std::move(clients), options);
  core::Rng rng(run_seed ^ 0xF3DDAF3DDAULL);
  return runner.Run(&store, &rng);
}

std::vector<FlRunResult> RunFederatedRepeated(const FederatedSystem& system,
                                              const FlOptions& options,
                                              int num_runs,
                                              uint64_t base_seed) {
  FEDDA_CHECK_GT(num_runs, 0);
  std::vector<FlRunResult> runs;
  runs.reserve(static_cast<size_t>(num_runs));
  for (int r = 0; r < num_runs; ++r) {
    runs.push_back(RunFederated(system, options, base_seed + uint64_t(r)));
  }
  return runs;
}

BaselineResult RunGlobal(const FederatedSystem& system, int rounds,
                         const hgn::TrainOptions& train,
                         const hgn::EvalOptions& eval, uint64_t run_seed,
                         bool eval_every_round) {
  tensor::ParameterStore store = system.MakeInitialStore(run_seed);
  core::Rng rng(run_seed ^ 0x61B06A1ULL);
  return RunGlobalBaseline(&system.model(), &system.global(),
                           system.train_edges(), system.test_edges(), rounds,
                           train, eval, &store, &rng, eval_every_round);
}

BaselineResult RunLocal(const FederatedSystem& system, int rounds,
                        const hgn::TrainOptions& train,
                        const hgn::EvalOptions& eval, uint64_t run_seed) {
  tensor::ParameterStore store = system.MakeInitialStore(run_seed);
  std::vector<std::unique_ptr<Client>> clients = system.MakeClients(store);
  core::Rng rng(run_seed ^ 0x10CA1ULL);
  return RunLocalBaseline(&system.model(), &system.global(),
                          system.test_edges(), &clients, rounds, train, eval,
                          &rng);
}

RepeatedSummary Summarize(const std::vector<FlRunResult>& runs) {
  RepeatedSummary summary;
  if (runs.empty()) return summary;

  std::vector<double> final_aucs, final_mrrs;
  for (const FlRunResult& run : runs) {
    final_aucs.push_back(run.final_auc);
    final_mrrs.push_back(run.final_mrr);
  }
  summary.final_auc = metrics::ComputeMeanStd(final_aucs);
  summary.final_mrr = metrics::ComputeMeanStd(final_mrrs);
  const auto mean_total = [&runs](int64_t RoundRecord::*field) {
    double sum = 0.0;
    for (const FlRunResult& run : runs) {
      sum += static_cast<double>(SumOver(run.history, field));
    }
    return sum / static_cast<double>(runs.size());
  };
  summary.mean_total_uplink_groups = mean_total(&RoundRecord::uplink_groups);
  summary.mean_total_uplink_scalars = mean_total(&RoundRecord::uplink_scalars);
  summary.mean_total_max_uplink_scalars =
      mean_total(&RoundRecord::max_uplink_scalars);
  summary.mean_total_uplink_bytes = mean_total(&RoundRecord::uplink_bytes);
  summary.mean_total_downlink_bytes = mean_total(&RoundRecord::downlink_bytes);
  summary.mean_total_downlink_scalars =
      mean_total(&RoundRecord::downlink_scalars);

  const size_t rounds = runs[0].history.size();
  bool uniform = true;
  for (const FlRunResult& run : runs) {
    uniform = uniform && run.history.size() == rounds;
  }
  if (uniform && rounds > 0) {
    summary.mean_auc_per_round.resize(rounds);
    summary.min_auc_per_round.assign(rounds, 1.0);
    summary.max_auc_per_round.assign(rounds, 0.0);
    for (size_t t = 0; t < rounds; ++t) {
      double total = 0.0;
      for (const FlRunResult& run : runs) {
        const double auc = run.history[t].auc;
        total += auc;
        summary.min_auc_per_round[t] =
            std::min(summary.min_auc_per_round[t], auc);
        summary.max_auc_per_round[t] =
            std::max(summary.max_auc_per_round[t], auc);
      }
      summary.mean_auc_per_round[t] =
          total / static_cast<double>(runs.size());
    }
  }
  return summary;
}

}  // namespace fedda::fl
