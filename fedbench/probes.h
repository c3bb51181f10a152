#ifndef FEDBENCH_PROBES_H_
#define FEDBENCH_PROBES_H_

// Layer probes: each one replays a slice of the work a federated run does,
// through the same public calls, with a clock read between the calls.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "seams.h"
#include "workloads.h"

namespace fedbench {

/// A client's local graph and its task edges in that graph's edge space,
/// built exactly as FederatedSystem::MakeClients builds them.
struct LocalShard {
  std::unique_ptr<fedda::graph::HeteroGraph> graph;
  std::vector<fedda::graph::EdgeId> task_edges;
};
LocalShard BuildLocalShard(const fedda::fl::FederatedSystem& system,
                           int client);

/// Client `client` of FederatedSystem::MakeClients, with its task wrapped in
/// a TimedTask that records into `slot`. `shard.graph` must outlive the
/// client.
std::unique_ptr<fedda::fl::Client> MakeTimedClient(
    const fedda::fl::FederatedSystem& system, int client,
    const LocalShard& shard, const fedda::tensor::ParameterStore& store,
    std::vector<Span>* slot);

/// data: GenerateGraph, then SplitEdges + PartitionClients + one
/// SubgraphFromEdges per client, replaying FederatedSystem::Build's RNG
/// sequence. Fails unless the replay reproduces `system`'s graph and shards.
struct DataProbe {
  double generate_s = 0.0;
  /// PartitionClients plus every client's SubgraphFromEdges.
  double partition_s = 0.0;
  /// Edges summed over the clients' local graphs.
  int64_t client_edges = 0;
};
[[nodiscard]] fedda::core::Status ProbeData(
    const Workload& workload, const fedda::fl::FederatedSystem& system,
    DataProbe* out);

/// tensor / hgn: one full-batch local step on the workload's largest client
/// (most local edges), split into its public calls, next to a real
/// LinkPredictionTask::TrainRound on the same client. Medians over `reps`.
struct StepProbe {
  double encode_s = 0.0;     // SimpleHgn::Encode
  double loss_s = 0.0;       // ScorePairs + BceWithLogits
  double backward_s = 0.0;   // tensor::Graph::Backward
  double optimizer_s = 0.0;  // Adam::Step
  int64_t tape_nodes = 0;
  double train_round_s = 0.0;
  /// (encode + loss + backward + optimizer) / train_round, per rep.
  double coverage = 0.0;
};
[[nodiscard]] fedda::core::Status ProbeStep(
    const Workload& workload, const fedda::fl::FederatedSystem& system,
    fedda::core::ThreadPool* pool, int reps, StepProbe* out);

/// fl wire: an uplink at the workload's layout (FedDA masked uplink with
/// every unit active, or FedAvg's dense all-group uplink) through
/// Serialize, Deserialize and ApplyTo. Median seconds over `reps`.
[[nodiscard]] fedda::core::Status ProbeWireRoundTrip(
    const Workload& workload, const fedda::fl::FederatedSystem& system,
    int reps, double* seconds);

/// net: the same serialized uplink as one net/framing.h frame, written to
/// one end of a Unix-domain socketpair, echoed back by a thread on the other
/// end, and read again (WriteFrame + ReadFrame on both sides). Fails unless
/// the echoed body is byte-identical. Median seconds over `reps`.
[[nodiscard]] fedda::core::Status ProbeFrameRoundTrip(
    const Workload& workload, const fedda::fl::FederatedSystem& system,
    int reps, double* seconds);

}  // namespace fedbench

#endif  // FEDBENCH_PROBES_H_
