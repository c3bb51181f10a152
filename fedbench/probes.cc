#include "probes.h"

#include <sys/socket.h>

#include <cstring>
#include <thread>

#include "core/arena.h"
#include "data/generator.h"
#include "data/partition.h"
#include "fl/activation.h"
#include "fl/wire.h"
#include "graph/sampling.h"
#include "graph/split.h"
#include "hgn/link_prediction.h"
#include "net/framing.h"
#include "stats.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace fedbench {

using fedda::core::Status;
using fedda::graph::EdgeId;
using fedda::graph::HeteroGraph;
using fedda::tensor::ParameterStore;

LocalShard BuildLocalShard(const fedda::fl::FederatedSystem& system,
                           int client) {
  const fedda::data::ClientShard& shard =
      system.shards()[static_cast<size_t>(client)];
  LocalShard out;
  out.graph = std::make_unique<HeteroGraph>(
      system.global().SubgraphFromEdges(shard.local_edges));
  // Both id lists are sorted and task edges are a subset of local edges;
  // SubgraphFromEdges numbers edges by position in local_edges.
  size_t j = 0;
  for (size_t k = 0;
       k < shard.local_edges.size() && j < shard.task_edges.size(); ++k) {
    if (shard.local_edges[k] == shard.task_edges[j]) {
      out.task_edges.push_back(static_cast<EdgeId>(k));
      ++j;
    }
  }
  return out;
}

std::unique_ptr<fedda::fl::Client> MakeTimedClient(
    const fedda::fl::FederatedSystem& system, int client,
    const LocalShard& shard, const ParameterStore& store,
    std::vector<Span>* slot) {
  auto task = std::make_unique<fedda::hgn::LinkPredictionTask>(
      &system.model(), shard.graph.get(), shard.task_edges);
  return std::make_unique<fedda::fl::Client>(
      client, std::make_unique<TimedTask>(std::move(task), slot), store);
}

Status ProbeData(const Workload& workload,
                 const fedda::fl::FederatedSystem& system, DataProbe* out) {
  const fedda::fl::SystemConfig& config = workload.system;
  fedda::core::Rng rng(config.seed);
  const double t0 = Now();
  const HeteroGraph global = fedda::data::GenerateGraph(config.data, &rng);
  const double t1 = Now();
  const fedda::graph::EdgeSplit split =
      fedda::graph::SplitEdges(global, config.test_fraction, &rng);
  const double t2 = Now();
  const std::vector<fedda::data::ClientShard> shards =
      fedda::data::PartitionClients(global, split.train, config.partition,
                                    &rng);
  const double t3 = Now();
  int64_t client_edges = 0;
  for (const fedda::data::ClientShard& shard : shards) {
    client_edges += global.SubgraphFromEdges(shard.local_edges).num_edges();
  }
  const double t4 = Now();

  if (global.num_edges() != system.global().num_edges() ||
      split.test != system.test_edges() ||
      shards.size() != system.shards().size()) {
    return Status::Internal("data probe did not reproduce the system");
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].local_edges != system.shards()[i].local_edges) {
      return Status::Internal("data probe shard differs from the system's");
    }
  }
  out->generate_s = t1 - t0;
  out->partition_s = (t3 - t2) + (t4 - t3);
  out->client_edges = client_edges;
  return Status::OK();
}

Status ProbeStep(const Workload& workload,
                 const fedda::fl::FederatedSystem& system,
                 fedda::core::ThreadPool* pool, int reps, StepProbe* out) {
  fedda::hgn::TrainOptions options = workload.options.local;
  if (options.batch_size != 0 || options.ego_hops != 0 ||
      options.local_epochs != 1 || !options.use_adam) {
    return Status::FailedPrecondition(
        "the step probe models one full-batch Adam epoch");
  }
  options.pool = pool;

  int largest = 0;
  for (int c = 1; c < system.num_clients(); ++c) {
    if (system.shards()[static_cast<size_t>(c)].local_edges.size() >
        system.shards()[static_cast<size_t>(largest)].local_edges.size()) {
      largest = c;
    }
  }
  const LocalShard shard = BuildLocalShard(system, largest);
  const HeteroGraph& graph = *shard.graph;
  const fedda::hgn::SimpleHgn& model = system.model();
  const fedda::hgn::LinkPredictionTask task(&model, &graph, shard.task_edges);
  const fedda::graph::NegativeSampler sampler(&graph);
  ParameterStore store = system.MakeInitialStore(workload.run_seed);
  fedda::core::Rng rng(workload.run_seed + 1);

  std::vector<double> encode, loss, backward, optimizer, train, coverage;
  for (int rep = 0; rep < reps; ++rep) {
    // The batch TrainRound builds: every target edge plus its corrupted
    // negatives.
    std::vector<int32_t> us, vs, ets;
    const int negatives = options.negatives_per_positive;
    fedda::tensor::Tensor labels(
        static_cast<int64_t>(shard.task_edges.size()) * (1 + negatives), 1);
    int64_t row = 0;
    for (const EdgeId e : shard.task_edges) {
      const int32_t u = graph.edge_src(e);
      const int32_t v = graph.edge_dst(e);
      const int32_t t = graph.edge_type(e);
      us.push_back(u);
      vs.push_back(v);
      ets.push_back(t);
      labels.data()[row++] = 1.0f;
      for (int k = 0; k < negatives; ++k) {
        us.push_back(u);
        vs.push_back(sampler.CorruptDst(u, v, static_cast<int16_t>(t), &rng));
        ets.push_back(t);
        labels.data()[row++] = 0.0f;
      }
    }

    fedda::core::Arena arena;
    fedda::tensor::Adam adam(options.learning_rate, 0.9f, 0.999f, 1e-8f,
                             options.weight_decay);
    store.ZeroGrads();
    double t[5] = {};
    int64_t nodes = 0;
    {
      fedda::tensor::Graph g(/*training=*/true);
      g.set_pool(pool);
      g.set_arena(&arena);
      t[0] = Now();
      const fedda::tensor::Var embeddings =
          model.Encode(&g, graph, task.mp(), &store, &rng);
      t[1] = Now();
      const fedda::tensor::Var logits =
          model.ScorePairs(&g, embeddings, us, vs, ets, &store);
      const fedda::tensor::Var bce =
          fedda::tensor::BceWithLogits(&g, logits, labels);
      t[2] = Now();
      g.Backward(bce);
      t[3] = Now();
      adam.Step(&store);
      t[4] = Now();
      nodes = static_cast<int64_t>(g.num_nodes());
    }
    const double start = Now();
    task.TrainRound(&store, options, &rng);
    const double round = Now() - start;

    encode.push_back(t[1] - t[0]);
    loss.push_back(t[2] - t[1]);
    backward.push_back(t[3] - t[2]);
    optimizer.push_back(t[4] - t[3]);
    train.push_back(round);
    coverage.push_back((t[4] - t[0]) / round);
    out->tape_nodes = nodes;
  }
  out->encode_s = Median(encode);
  out->loss_s = Median(loss);
  out->backward_s = Median(backward);
  out->optimizer_s = Median(optimizer);
  out->train_round_s = Median(train);
  out->coverage = Median(coverage);
  return Status::OK();
}

namespace {

/// The uplink the wire and frame probes carry: FedDA's masked uplink with
/// every unit active, or FedAvg's dense all-group uplink.
fedda::fl::WirePayload ProbeUplink(const Workload& workload,
                                   const fedda::fl::FederatedSystem& system,
                                   const ParameterStore& store) {
  if (workload.options.algorithm == fedda::fl::FlAlgorithm::kFedAvg) {
    std::vector<int> groups;
    for (int gid = 0; gid < store.num_groups(); ++gid) groups.push_back(gid);
    return fedda::fl::BuildDenseUplinkPayload(groups, 0, 0, store);
  }
  const fedda::fl::ActivationState state(system.num_clients(), store,
                                         workload.options.activation);
  return fedda::fl::BuildUplinkPayload(state, 0, 0, store);
}

}  // namespace

Status ProbeWireRoundTrip(const Workload& workload,
                          const fedda::fl::FederatedSystem& system, int reps,
                          double* seconds) {
  const ParameterStore store = system.MakeInitialStore(workload.run_seed);
  const fedda::fl::WirePayload uplink = ProbeUplink(workload, system, store);
  ParameterStore target = system.MakeInitialStore(workload.run_seed + 1);
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const double start = Now();
    const std::vector<uint8_t> bytes = uplink.Serialize();
    fedda::fl::WirePayload received;
    Status status = received.Deserialize(bytes);
    if (status.ok()) status = received.ApplyTo(&target);
    times.push_back(Now() - start);
    if (!status.ok()) return status;
  }
  for (int gid = 0; gid < store.num_groups(); ++gid) {
    const fedda::tensor::Tensor& want = store.value(gid);
    const fedda::tensor::Tensor& got = target.value(gid);
    if (want.size() != got.size() ||
        std::memcmp(want.data(), got.data(),
                    sizeof(float) * static_cast<size_t>(want.size())) != 0) {
      return Status::Internal("wire round trip changed parameter values");
    }
  }
  *seconds = Median(times);
  return Status::OK();
}

Status ProbeFrameRoundTrip(const Workload& workload,
                           const fedda::fl::FederatedSystem& system, int reps,
                           double* seconds) {
  constexpr double kTimeoutSec = 30.0;
  const ParameterStore store = system.MakeInitialStore(workload.run_seed);
  const std::vector<uint8_t> body =
      ProbeUplink(workload, system, store).Serialize();
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError("socketpair failed");
  }
  fedda::net::Socket near(fds[0]);
  fedda::net::Socket far(fds[1]);
  Status echoed = Status::OK();
  std::thread echo([&far, &echoed, reps] {
    for (int rep = 0; rep < reps && echoed.ok(); ++rep) {
      fedda::net::Frame frame;
      echoed = fedda::net::ReadFrame(&far, kTimeoutSec, &frame);
      if (echoed.ok()) {
        echoed = fedda::net::WriteFrame(&far, frame.type, frame.body);
      }
    }
  });
  std::vector<double> times;
  Status status = Status::OK();
  for (int rep = 0; rep < reps && status.ok(); ++rep) {
    fedda::net::Frame frame;
    const double start = Now();
    status = fedda::net::WriteFrame(&near, fedda::net::FrameType::kRoundReply,
                                    body);
    if (status.ok()) status = fedda::net::ReadFrame(&near, kTimeoutSec, &frame);
    times.push_back(Now() - start);
    if (status.ok() && frame.body != body) {
      status = Status::Internal("frame round trip changed the payload");
    }
  }
  // Closing our end ends the echo thread's read if the loop stopped early.
  near.Close();
  echo.join();
  FEDDA_RETURN_IF_ERROR(status);
  FEDDA_RETURN_IF_ERROR(echoed);
  *seconds = Median(times);
  return Status::OK();
}

}  // namespace fedbench
