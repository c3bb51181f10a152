#ifndef FEDDA_FL_CLIENT_H_
#define FEDDA_FL_CLIENT_H_

#include <memory>
#include <vector>

#include "fl/activation.h"
#include "fl/wire.h"
#include "graph/hetero_graph.h"
#include "hgn/link_prediction.h"
#include "tensor/parameter_store.h"

namespace fedda::fl {

/// What one participant returns for one round: its mean local training loss
/// and the uplink payload it sends.
struct ClientUpdate {
  double loss = 0.0;
  WirePayload uplink;
};

/// One federated client: owns its local sub-heterograph, its task edges
/// (link-prediction targets restricted to its specialized types), and its
/// local copy of the model parameters.
///
/// Clients never expose raw graph data to the runner; the only things that
/// cross the "network" are parameter values (down) and updated parameter
/// values for requested groups (up).
class Client {
 public:
  /// Link-prediction client (the paper's setting). `model` must outlive the
  /// client; `reference_store` provides the parameter structure.
  /// `local_task_edges` are edge ids in `local_graph`'s own edge space.
  Client(int id, const hgn::SimpleHgn* model, graph::HeteroGraph local_graph,
         std::vector<graph::EdgeId> local_task_edges,
         const tensor::ParameterStore& reference_store);

  /// Generic client over any local objective (e.g. node classification):
  /// the FL protocol only needs a TrainableTask. The task owns whatever
  /// graph/state it trains on.
  Client(int id, std::unique_ptr<hgn::TrainableTask> task,
         const tensor::ParameterStore& reference_store);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Replaces local weights with the broadcast global weights and runs E
  /// local epochs of mini-batch training, leaving the result in params().
  /// Returns the mean local training loss. A client whose store was
  /// released (TrainRound) is re-materialized from `global` with identical
  /// values.
  double Update(const tensor::ParameterStore& global,
                const hgn::TrainOptions& options, core::Rng* rng);

  /// ClientUpdate of Algorithm 1, the one step every participant runs,
  /// in-process or in a remote process: Update() on `global`, then Gaussian
  /// noise of `dp_noise_std` on every scalar (drawn from `rng` after
  /// training; 0 draws nothing), then the uplink for `round` — under
  /// `masks`' request set for this client (FedDA), or with `masks` null the
  /// dense `groups` (FedAvg). The payload is the only thing that leaves the
  /// client, so the store is released afterwards; the next Update()
  /// rebuilds it from the broadcast.
  ClientUpdate TrainRound(const tensor::ParameterStore& global,
                          const hgn::TrainOptions& options,
                          double dp_noise_std, const ActivationState* masks,
                          const std::vector<int>& groups, int round,
                          core::Rng* rng);

  /// Continues training from the current local weights without a broadcast
  /// (used by the Local baseline).
  double TrainLocalOnly(const hgn::TrainOptions& options, core::Rng* rng);

  int id() const { return id_; }
  const tensor::ParameterStore& params() const { return store_; }
  tensor::ParameterStore* mutable_params() { return &store_; }
  /// Only valid for link-prediction clients built from a local graph.
  const graph::HeteroGraph& local_graph() const {
    FEDDA_CHECK(local_graph_ != nullptr) << "client has no owned graph";
    return *local_graph_;
  }
  /// Local training examples (edges or labeled nodes).
  int64_t num_task_edges() const { return task_->num_examples(); }

 private:
  int id_;
  /// Heap-allocated so the task's pointer stays valid (LP clients only).
  std::unique_ptr<graph::HeteroGraph> local_graph_;
  std::unique_ptr<hgn::TrainableTask> task_;
  tensor::ParameterStore store_;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_CLIENT_H_
