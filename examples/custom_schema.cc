// Full pipeline on a user-defined heterograph schema: define the schema,
// synthesize a global graph, partition it into Non-IID clients, and run
// FedDA — everything through the high-level experiment facade. This is the
// template to copy when adapting the library to a new domain.
//
//   ./build/examples/custom_schema

#include <iostream>

#include "core/string_util.h"
#include "data/generator.h"
#include "fl/experiment.h"
#include "graph/stats.h"

using namespace fedda;  // example code; library code never does this

int main() {
  // 1. Describe your domain. Here: an online-music service with users,
  //    songs, and artists (the paper's Sec. 3 example of Non-IID edge
  //    types: regional song preferences).
  data::SyntheticSpec music;
  music.name = "music";
  music.node_types = {{"user", 800, 24}, {"song", 400, 24},
                      {"artist", 80, 12}};
  music.edge_types = {
      {"listens", 0, 1, 6000, 1.1, 0.85},   // user-song
      {"follows", 0, 2, 1500, 1.2, 0.8},    // user-artist
      {"performs", 2, 1, 800, 0.8, 0.9},    // artist-song
      {"friends", 0, 0, 2000, 1.1, 0.9}};   // user-user
  music.num_communities = 8;  // think: regions / taste clusters

  // 2. Build the federated system: 6 regional app deployments, each biased
  //    toward some interaction types.
  fl::SystemConfig config;
  config.data = music;
  config.test_fraction = 0.15;
  config.partition.num_clients = 6;
  config.partition.num_specialties = 2;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 16;
  config.model.edge_emb_dim = 8;
  config.model.decoder = hgn::DecoderKind::kDistMult;
  config.seed = 5;
  const fl::FederatedSystem system = fl::FederatedSystem::Build(config);

  std::cout << "Global music graph:\n"
            << graph::StatsToString(
                   system.global(), graph::ComputeStats(system.global()))
            << "\n";

  // 3. Inspect the Non-IIDness the partitioner created.
  const auto global_dist = system.global().EdgeTypeDistribution();
  for (int i = 0; i < system.num_clients(); ++i) {
    const auto dist = system.global()
                          .SubgraphFromEdges(
                              system.shards()[size_t(i)].local_edges)
                          .EdgeTypeDistribution();
    std::cout << core::StrFormat(
        "client %d: TV distance to global edge-type distribution = %.3f\n", i,
        data::TotalVariation(dist, global_dist));
  }

  // 4. Train with FedDA-Explore and report the outcome.
  fl::FlOptions options;
  options.algorithm = fl::FlAlgorithm::kFedDaExplore;
  options.rounds = 12;
  options.local.learning_rate = 5e-3f;
  options.eval.max_edges = 400;
  options.eval.mrr_negatives = 10;
  const fl::FlRunResult result = RunFederated(system, options, 1);

  std::cout << "\nround  AUC     MRR     active  uplink-groups\n";
  for (const fl::RoundRecord& record : result.history) {
    std::cout << core::StrFormat("%4d   %.4f  %.4f  %4d    %lld\n",
                                 record.round, record.auc, record.mrr,
                                 record.active_after_round,
                                 static_cast<long long>(record.uplink_groups));
  }
  std::cout << core::StrFormat(
      "\nfinal: AUC %.4f, MRR %.4f, total uplink %lld groups\n",
      result.final_auc, result.final_mrr,
      static_cast<long long>(
          fl::SumOver(result.history, &fl::RoundRecord::uplink_groups)));
  return 0;
}
