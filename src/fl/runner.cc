#include "fl/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "fl/aggregator.h"
#include "fl/transport.h"
#include "fl/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fedda::fl {

using tensor::ParameterStore;
using tensor::Tensor;

const char* FlAlgorithmName(FlAlgorithm algorithm) {
  switch (algorithm) {
    case FlAlgorithm::kFedAvg:
      return "FedAvg";
    case FlAlgorithm::kFedDaRestart:
      return "FedDA-Restart";
    case FlAlgorithm::kFedDaExplore:
      return "FedDA-Explore";
  }
  return "Unknown";
}

namespace {

void ValidateOptions(const FlOptions& options, size_t num_clients) {
  FEDDA_CHECK_GT(num_clients, 0u);
  FEDDA_CHECK_GT(options.rounds, 0);
  FEDDA_CHECK(options.client_fraction > 0.0 &&
              options.client_fraction <= 1.0);
  FEDDA_CHECK(options.param_fraction > 0.0 &&
              options.param_fraction <= 1.0);
  if (options.transport != nullptr) {
    // A transport round is the synchronous protocol over a real wire; the
    // semi-async server's virtual-time schedule has no remote counterpart.
    FEDDA_CHECK(options.aggregation_mode == AggregationMode::kSynchronous)
        << "transport execution supports synchronous aggregation only";
  }
  if (options.aggregation_mode == AggregationMode::kSemiAsync) {
    const SemiAsyncOptions& sa = options.semi_async;
    // Buffered aggregation mixes updates that trained on different rounds'
    // broadcasts; a per-round random group subset (FedAvg's rate D) has no
    // coherent meaning across that mix.
    FEDDA_CHECK_EQ(options.param_fraction, 1.0)
        << "semi-async mode requires param_fraction == 1";
    FEDDA_CHECK_GE(sa.staleness_exponent, 0.0);
    FEDDA_CHECK_GT(sa.network.uplink_bytes_per_sec, 0.0);
    FEDDA_CHECK_GT(sa.network.downlink_bytes_per_sec, 0.0);
    if (!sa.client_speed.empty()) {
      FEDDA_CHECK_EQ(sa.client_speed.size(), num_clients)
          << "client_speed must have one entry per client";
      for (double speed : sa.client_speed) FEDDA_CHECK_GT(speed, 0.0);
    }
  }
}

/// Whether a remote reply's loss and every uplink value are finite. One
/// NaN or Inf folded into the streaming aggregate would poison the global
/// model for every client in every later round.
bool AllFinite(const TransportReply& reply) {
  if (!std::isfinite(reply.loss)) return false;
  for (const WireGroup& entry : reply.uplink.groups()) {
    for (float v : entry.values) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

}  // namespace

FederatedRunner::FederatedRunner(const hgn::SimpleHgn* model,
                                 const graph::HeteroGraph* global_graph,
                                 const std::vector<graph::EdgeId>* test_edges,
                                 std::vector<std::unique_ptr<Client>> clients,
                                 FlOptions options)
    : model_(model), global_graph_(global_graph), test_edges_(test_edges),
      clients_(std::move(clients)), options_(options),
      global_mp_(model->BuildStructure(*global_graph)) {
  ValidateOptions(options_, clients_.size());
}

FederatedRunner::FederatedRunner(std::vector<std::unique_ptr<Client>> clients,
                                 Evaluator evaluator, FlOptions options)
    : clients_(std::move(clients)), options_(options),
      evaluator_(std::move(evaluator)) {
  FEDDA_CHECK(evaluator_ != nullptr);
  ValidateOptions(options_, clients_.size());
}

std::pair<double, double> FederatedRunner::EvaluateGlobal(
    tensor::ParameterStore* store, core::Rng* rng,
    core::ThreadPool* pool) const {
  if (evaluator_) return evaluator_(store, rng);
  hgn::EvalOptions eval_options = options_.eval;
  eval_options.pool = pool;
  eval_options.tracer = options_.tracer;
  const hgn::EvalResult eval = hgn::EvaluateLinkPrediction(
      *model_, *global_graph_, global_mp_, *test_edges_, store,
      eval_options, rng);
  return {eval.auc, eval.mrr};
}

std::vector<int> FederatedRunner::SelectParticipants(ActivationState* state,
                                                     core::Rng* rng) {
  if (options_.algorithm == FlAlgorithm::kFedAvg) {
    const int m = num_clients();
    const int take = std::max(
        1, static_cast<int>(std::llround(options_.client_fraction * m)));
    if (take >= m) {
      std::vector<int> all(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) all[static_cast<size_t>(i)] = i;
      return all;
    }
    std::vector<int> out;
    for (size_t idx : rng->SampleWithoutReplacement(
             static_cast<size_t>(m), static_cast<size_t>(take))) {
      out.push_back(static_cast<int>(idx));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  return state->ActiveClients();
}

double FederatedRunner::AggregationWeight(int client) const {
  if (!options_.weighted_aggregation) return 1.0;
  return std::max<double>(
      1.0, static_cast<double>(
               clients_[static_cast<size_t>(client)]->num_task_edges()));
}

void FederatedRunner::UpdateActivation(
    const std::vector<int>& aggregated,
    const std::vector<std::vector<double>>& magnitudes,
    ActivationState* state, core::Rng* rng) {
  const int m = num_clients();
  state->UpdateMasks(aggregated, magnitudes);
  const std::vector<int> just_deactivated =
      state->DeactivateLowOccupancy(aggregated);

  if (options_.algorithm == FlAlgorithm::kFedDaRestart) {
    if (static_cast<double>(state->num_active_clients()) <
        options_.beta_r * m) {
      state->ActivateAll();
    }
  } else {
    const int target = std::max(
        1, static_cast<int>(std::llround(options_.beta_e * m)));
    if (state->num_active_clients() < target) {
      // Candidate pool: deactivated clients, excluding the ones dropped
      // this very round (paper Sec. 5.2, historical consistency).
      std::vector<int> candidates;
      for (int c = 0; c < m; ++c) {
        if (state->client_active(c)) continue;
        if (std::find(just_deactivated.begin(), just_deactivated.end(),
                      c) != just_deactivated.end()) {
          continue;
        }
        candidates.push_back(c);
      }
      rng->Shuffle(&candidates);
      for (int c : candidates) {
        if (state->num_active_clients() >= target) break;
        state->ReactivateClient(c);
      }
    }
    if (state->num_active_clients() == 0) {
      // Degenerate guard (e.g. every client deactivated in round 1 and
      // no rejoin candidates): restart rather than dead-lock.
      state->ActivateAll();
    }
  }
}

/// Shared per-run state and the two round drivers. One instance lives for
/// the whole Run(): the pool, activation state, downlink versions, event
/// queue, and in-flight bookkeeping all persist across rounds.
struct FederatedRunner::RoundLoop {
  FederatedRunner* runner;
  ParameterStore* global;
  core::Rng* rng;
  bool is_fedda;
  bool scalar_gran;
  int num_groups;

  ActivationState state;
  core::Rng eval_rng;
  core::ThreadPool pool;
  core::ThreadPool* pool_ptr;
  hgn::TrainOptions local_options;
  DownlinkVersionTracker downlink;
  /// Remote execution (null in-process). `mirror` tracks what each remote
  /// process's copy of the global store already holds, over *all* groups —
  /// unlike `downlink`, which bills only the masked requests. In-process
  /// clients read the global directly, so training on the full current
  /// model is free; a remote mirror has to be kept exact explicitly, and
  /// this tracker keeps those resyncs incremental (only groups aggregation
  /// rewrote since the client's last sync travel again).
  Transport* transport;
  DownlinkVersionTracker mirror;

  obs::Tracer* tracer;
  obs::Counter* ctr_rounds = nullptr;
  obs::Counter* ctr_participants = nullptr;
  obs::Counter* ctr_uplink_bytes = nullptr;
  obs::Counter* ctr_downlink_bytes = nullptr;
  obs::Counter* ctr_uplink_scalars = nullptr;
  obs::Counter* ctr_downlink_scalars = nullptr;
  obs::Counter* ctr_departures = nullptr;
  obs::Counter* ctr_forced_reactivations = nullptr;

  FlRunResult result;

  // Event-driven server state (semi-async mode).
  EventQueue queue;
  /// Client has an update (or a scheduled departure) in flight and must not
  /// be re-broadcast until the event is processed.
  std::vector<uint8_t> in_flight;
  /// Uplink accounting and loss of the in-flight update, captured when it
  /// was scheduled (the masks in force when the client trained) and charged
  /// when it arrives.
  struct Pending {
    double loss = 0.0;
    int64_t uplink_groups = 0;
    int64_t uplink_scalars = 0;
    int64_t uplink_bytes = 0;
    int64_t downlink_bytes = 0;
  };
  std::vector<Pending> pending;
  /// Transport mode: clients whose reply broke the protocol (an uplink
  /// built for another model layout). They stay departed for the rest of
  /// the run, like a client whose process died.
  std::vector<uint8_t> expelled;

  RoundLoop(FederatedRunner* r, ParameterStore* global_store, core::Rng* g)
      : runner(r), global(global_store), rng(g),
        is_fedda(r->options_.algorithm != FlAlgorithm::kFedAvg),
        scalar_gran(r->options_.activation.granularity ==
                    ActivationGranularity::kScalar),
        num_groups(global_store->num_groups()),
        state(r->num_clients(), *global_store, r->options_.activation),
        eval_rng(g->Split()),
        pool(r->options_.worker_threads),
        pool_ptr(r->options_.worker_threads > 0 ? &pool : nullptr),
        local_options(r->options_.local),
        downlink(r->num_clients(), num_groups),
        transport(r->options_.transport),
        mirror(r->num_clients(), num_groups),
        tracer(r->options_.tracer),
        in_flight(static_cast<size_t>(r->num_clients()), 0),
        pending(static_cast<size_t>(r->num_clients())),
        expelled(static_cast<size_t>(r->num_clients()), 0) {
    local_options.pool = pool_ptr;
    local_options.tracer = tracer;
    obs::MetricsRegistry* metrics = r->options_.metrics;
    if (metrics != nullptr) {
      ctr_rounds = metrics->AddCounter("fl.rounds");
      ctr_participants = metrics->AddCounter("fl.participants");
      ctr_uplink_bytes = metrics->AddCounter("fl.uplink_bytes");
      ctr_downlink_bytes = metrics->AddCounter("fl.downlink_bytes");
      ctr_uplink_scalars = metrics->AddCounter("fl.uplink_scalars");
      ctr_downlink_scalars = metrics->AddCounter("fl.downlink_scalars");
      ctr_departures = metrics->AddCounter("fl.departures");
      ctr_forced_reactivations =
          metrics->AddCounter("fl.forced_reactivations");
    }
    result.history.reserve(static_cast<size_t>(r->options_.rounds));
  }

  const FlOptions& options() const { return runner->options_; }
  Client* client(int c) { return runner->clients_[static_cast<size_t>(c)].get(); }

  /// Every group the client requests this round under its current masks
  /// (everything, for FedAvg).
  std::vector<int> RequestedGroups(int c) const {
    std::vector<int> requested;
    for (int gid = 0; gid < num_groups; ++gid) {
      if (is_fedda && !state.GroupRequested(c, gid)) continue;
      requested.push_back(gid);
    }
    return requested;
  }

  /// Charges the requested-and-stale downlink for `c` against `record`;
  /// returns the bytes shipped (0 when the client's cache is current).
  int64_t ChargeDownlink(int c, const ParameterStore& broadcast, int round,
                         RoundRecord* record) {
    const std::vector<int> need = downlink.ClaimStale(c, RequestedGroups(c));
    int64_t bytes = 0;
    int64_t scalars = 0;
    if (!need.empty()) {
      const WirePayload payload = BuildDownlinkPayload(need, c, round,
                                                       broadcast);
      bytes = payload.EncodedBytes();
      scalars = payload.CoveredScalars();
    }
    record->downlink_bytes += bytes;
    record->downlink_scalars += scalars;
    record->max_downlink_bytes = std::max(record->max_downlink_bytes, bytes);
    record->max_downlink_scalars =
        std::max(record->max_downlink_scalars, scalars);
    return bytes;
  }

  /// Trains `trainers` on `broadcast` in parallel. RNG streams are split
  /// from the round RNG in trainer order before any update starts, so the
  /// result is identical whether updates run sequentially or on the pool.
  std::vector<double> TrainClients(const std::vector<int>& trainers,
                                   const ParameterStore& broadcast,
                                   int round) {
    std::vector<core::Rng> client_rngs;
    client_rngs.reserve(trainers.size());
    for (size_t p = 0; p < trainers.size(); ++p) {
      client_rngs.push_back(rng->Split());
    }
    std::vector<double> losses(trainers.size(), 0.0);
    auto update_one = [&](int64_t p) {
      const int c = trainers[static_cast<size_t>(p)];
      // Runs on a pool worker when worker_threads > 0, exercising the
      // tracer's per-thread span buffers.
      obs::ScopedSpan client_span(tracer, "client-update", "client", c);
      core::Rng& client_rng = client_rngs[static_cast<size_t>(p)];
      losses[static_cast<size_t>(p)] =
          client(c)->Update(broadcast, local_options, &client_rng);
      if (options().dp_noise_std > 0.0) {
        // Perturb the client's outgoing weights (the server only ever sees
        // the noisy values, including in the mask-update magnitudes).
        ParameterStore* params = client(c)->mutable_params();
        for (int gid = 0; gid < params->num_groups(); ++gid) {
          Tensor& value = params->value(gid);
          for (int64_t k = 0; k < value.size(); ++k) {
            value.data()[k] += static_cast<float>(
                client_rng.Gaussian(0.0, options().dp_noise_std));
          }
        }
      }
    };
    // With zero workers ParallelFor degenerates to the sequential loop;
    // with workers each client update is one chunk and the kernels inside
    // it recursively share the same pool.
    obs::ScopedSpan train_span(tracer, "local-train", "round", round);
    pool.ParallelFor(static_cast<int64_t>(trainers.size()), update_one);
    return losses;
  }

  /// Transport mode's counterpart of TrainClients: ships each participant
  /// its round task (split RNG state in TrainClients' order, the masks in
  /// force, a mirror resync), collects the replies, and prunes participants
  /// whose process departed mid-round (recording the departure and
  /// invalidating both downlink trackers). Returns the surviving
  /// participants' losses; their uplink payloads land in `uplinks`, aligned
  /// with the pruned `participants`.
  std::vector<double> ExecuteRemoteRound(
      std::vector<int>* participants,
      const std::vector<int>& selected_groups, int round,
      RoundRecord* record, std::vector<WirePayload>* uplinks) {
    std::vector<int> all_groups(static_cast<size_t>(num_groups));
    for (int gid = 0; gid < num_groups; ++gid) {
      all_groups[static_cast<size_t>(gid)] = gid;
    }
    std::vector<TransportTask> tasks;
    tasks.reserve(participants->size());
    for (int c : *participants) {
      TransportTask task;
      task.client = c;
      task.round = round;
      // One Split() per participant, in participant order — the exact draw
      // sequence TrainClients performs — so remote streams are bit-equal to
      // the in-process client streams.
      task.rng_state = rng->Split().SaveState();
      task.fedda = is_fedda;
      if (is_fedda) {
        task.mask_bits = state.ClientMask(c);
      } else {
        task.selected_groups = selected_groups;
      }
      task.sync = BuildDownlinkPayload(mirror.ClaimStale(c, all_groups), c,
                                       round, *global);
      tasks.push_back(std::move(task));
    }
    std::vector<TransportReply> replies = transport->ExecuteRound(tasks);
    FEDDA_CHECK_EQ(replies.size(), tasks.size());
    std::vector<int> delivered;
    std::vector<double> losses;
    for (size_t p = 0; p < replies.size(); ++p) {
      const int c = (*participants)[p];
      TransportReply& reply = replies[p];
      // A reply can decode cleanly yet carry an uplink built for another
      // model layout, which ApplyTo would reject mid-aggregation, or a
      // non-finite loss or value, which would poison the aggregate. Its
      // sender is expelled here, before anything aggregates.
      if (reply.ok &&
          (!reply.uplink.CheckLayout(*global).ok() || !AllFinite(reply))) {
        expelled[static_cast<size_t>(c)] = 1;
      }
      if (!reply.ok || expelled[static_cast<size_t>(c)]) {
        // The process died (or went silent past the read deadline, or was
        // expelled) after receiving this round's broadcast: its update is
        // lost and its cached copy of the model is gone with it, so a
        // rejoin would be charged as a full resync — same semantics as a
        // semi-async departure event.
        ++record->departures;
        if (ctr_departures != nullptr) ctr_departures->Increment();
        downlink.InvalidateClient(c);
        mirror.InvalidateClient(c);
        continue;
      }
      delivered.push_back(c);
      losses.push_back(reply.loss);
      uplinks->push_back(std::move(reply.uplink));
    }
    *participants = std::move(delivered);
    return losses;
  }

  /// Dynamic deactivation emptied the active set outside any reactivation
  /// window (e.g. beta_r = 0): force a full restart instead of aborting the
  /// process, record it, and refill `participants`.
  void ForceReactivation(std::vector<int>* participants, int round,
                         RoundRecord* record) {
    if (!participants->empty()) return;
    state.ActivateAll();
    *participants = state.ActiveClients();
    record->forced_reactivation = true;
    if (ctr_forced_reactivations != nullptr) {
      ctr_forced_reactivations->Increment();
    }
    // Recorded directly (not scheduled): the reactivation happens "now",
    // before anything else this round.
    Event event;
    event.time = queue.virtual_now();
    event.kind = EventKind::kReactivation;
    event.client = -1;
    event.round = round;
    result.events.push_back(event);
  }

  void FinishRound(RoundRecord record) {
    if (ctr_participants != nullptr) {
      ctr_participants->Add(record.participants);
      ctr_uplink_bytes->Add(record.uplink_bytes);
      ctr_downlink_bytes->Add(record.downlink_bytes);
      ctr_uplink_scalars->Add(record.uplink_scalars);
      ctr_downlink_scalars->Add(record.downlink_scalars);
    }
    result.total_uplink_groups += record.uplink_groups;
    result.total_uplink_scalars += record.uplink_scalars;
    result.total_max_uplink_scalars += record.max_uplink_scalars;
    result.total_uplink_bytes += record.uplink_bytes;
    result.total_downlink_bytes += record.downlink_bytes;
    result.total_downlink_scalars += record.downlink_scalars;
    result.total_max_downlink_scalars += record.max_downlink_scalars;
    result.history.push_back(std::move(record));
  }

  void Evaluate(int round, RoundRecord* record) {
    if (options().eval_every_round || round == options().rounds - 1) {
      obs::ScopedSpan eval_span(tracer, "eval", "round", round);
      std::tie(record->auc, record->mrr) =
          runner->EvaluateGlobal(global, &eval_rng, pool_ptr);
    }
  }

  void RunSyncRound(int round);
  void RunSemiAsyncRound(int round);
};

void FederatedRunner::RoundLoop::RunSyncRound(int round) {
  obs::ScopedSpan round_span(tracer, "round", "round", round);
  if (ctr_rounds != nullptr) ctr_rounds->Increment();
  RoundRecord record;
  record.round = round;

  std::vector<int> participants = runner->SelectParticipants(&state, rng);
  ForceReactivation(&participants, round, &record);
  if (options().client_failure_prob > 0.0) {
    std::vector<int> responding;
    for (int c : participants) {
      if (!rng->Bernoulli(options().client_failure_prob)) {
        responding.push_back(c);
      }
    }
    participants = std::move(responding);
  }
  if (transport != nullptr) {
    // Clients whose process already departed (or that were expelled)
    // cannot be tasked. They are filtered only *after* every selection and
    // failure draw above, so a departure-free remote run replays the exact
    // in-process RNG stream.
    std::vector<int> alive;
    for (int c : participants) {
      if (transport->ClientAlive(c) && !expelled[static_cast<size_t>(c)]) {
        alive.push_back(c);
      }
    }
    participants = std::move(alive);
  }
  if (participants.empty()) {
    // Everyone failed: no training, no aggregation, no uplink. The mean
    // loss is NaN, not 0: zero would read as a perfect round downstream.
    record.mean_local_loss = std::numeric_limits<double>::quiet_NaN();
    record.active_after_round = state.num_active_clients();
    Evaluate(round, &record);
    FinishRound(std::move(record));
    return;
  }

  // FedAvg's random parameter activation (rate D): one server-side group
  // subset per round, shared by all participants. FedDA transmits per its
  // masks, so every group is nominally "selected".
  std::vector<int> selected_groups;
  int64_t selected_scalars = 0;
  if (!is_fedda && options().param_fraction < 1.0) {
    const int take = std::max(
        1, static_cast<int>(
               std::llround(options().param_fraction * num_groups)));
    for (size_t idx : rng->SampleWithoutReplacement(
             static_cast<size_t>(num_groups), static_cast<size_t>(take))) {
      selected_groups.push_back(static_cast<int>(idx));
    }
    std::sort(selected_groups.begin(), selected_groups.end());
  } else {
    selected_groups.resize(static_cast<size_t>(num_groups));
    for (int gid = 0; gid < num_groups; ++gid) {
      selected_groups[static_cast<size_t>(gid)] = gid;
    }
  }
  for (int gid : selected_groups) {
    selected_scalars += global->value(gid).size();
  }

  // The broadcast is the global store itself: streaming aggregation defers
  // every write to Finalize(), so no global value changes while clients
  // read it and the old per-round O(model) deep copy is gone.
  const ParameterStore& broadcast = *global;
  std::vector<WirePayload> remote_uplinks;
  const std::vector<double> losses =
      transport == nullptr
          ? TrainClients(participants, broadcast, round)
          : ExecuteRemoteRound(&participants, selected_groups, round,
                               &record, &remote_uplinks);
  if (participants.empty()) {
    // Every tasked participant departed mid-round: nothing arrived, so
    // nothing aggregates — but the recorded departures stand.
    record.mean_local_loss = std::numeric_limits<double>::quiet_NaN();
    record.active_after_round = state.num_active_clients();
    Evaluate(round, &record);
    FinishRound(std::move(record));
    return;
  }
  double loss_sum = 0.0;
  for (double loss : losses) loss_sum += loss;

  record.participants = static_cast<int>(participants.size());
  record.mean_local_loss =
      loss_sum / static_cast<double>(participants.size());
  // Uplink and downlink accounting uses the masks in force *this* round
  // (before the post-aggregation update below). Bytes are measured off
  // real fl/wire.h payloads, so they include entry headers and the
  // bit-packed mask overhead.
  {
    obs::ScopedSpan wire_span(tracer, "wire-encode", "round", round);
    for (size_t p = 0; p < participants.size(); ++p) {
      const int c = participants[p];
      const int64_t scalars =
          is_fedda ? state.TransmittedScalars(c) : selected_scalars;
      record.uplink_groups += is_fedda
                                  ? state.TransmittedGroups(c)
                                  : static_cast<int64_t>(
                                        selected_groups.size());
      record.uplink_scalars += scalars;
      record.max_uplink_scalars =
          std::max(record.max_uplink_scalars, scalars);

      // Transport mode measures the payload that actually crossed the wire;
      // in-process rounds build it here. Both are the same bytes — the
      // remote side runs the same builders on the same masks and weights.
      WirePayload built;
      if (transport == nullptr) {
        built = is_fedda
                    ? BuildUplinkPayload(state, c, round, client(c)->params())
                    : BuildDenseUplinkPayload(selected_groups, c, round,
                                              client(c)->params());
      }
      const WirePayload& uplink =
          transport != nullptr ? remote_uplinks[p] : built;
      const int64_t uplink_bytes = uplink.EncodedBytes();
      record.uplink_bytes += uplink_bytes;
      record.max_uplink_bytes =
          std::max(record.max_uplink_bytes, uplink_bytes);

      // Downlink: requested groups whose cached version is stale. An empty
      // need-list costs nothing — the round trigger itself is covered by
      // the timing model's fixed per-round latency.
      ChargeDownlink(c, broadcast, round, &record);
    }
  }

  // Streaming aggregation: one update at a time into per-group running
  // sums, handed off by move and freed as soon as it is folded in. Peak
  // server memory is O(model) — the accumulators plus one update — instead
  // of every participant's full update staying alive until round end.
  std::vector<uint8_t> groups_updated;
  std::vector<std::vector<double>> magnitudes;
  {
    obs::ScopedSpan agg_span(tracer, "aggregate", "round", round);
    StreamingAggregator::Config config;
    config.fedda = is_fedda;
    config.scalar_granularity = scalar_gran;
    StreamingAggregator aggregator(global, &state, selected_groups, config);
    magnitudes.reserve(participants.size());
    for (size_t p = 0; p < participants.size(); ++p) {
      const int c = participants[p];
      ParameterStore update;
      if (transport != nullptr) {
        // Reconstruct the remote update from its wire payload onto a copy
        // of the broadcast. Scalars the payload masks off keep broadcast
        // values, which is enough for bit-identity: Accumulate never reads
        // a scalar the client's mask excludes. One reconstruction lives at
        // a time, preserving the streaming server's O(model) peak memory.
        update = *global;
        // ExecuteRemoteRound expelled every sender whose layout does not
        // match, so this cannot fail.
        const core::Status applied = remote_uplinks[p].ApplyTo(&update);
        FEDDA_CHECK(applied.ok())
            << "uplink payload does not match the model layout (client "
            << c << "): " << applied.ToString();
      } else {
        update = client(c)->TakeUpdate();
      }
      magnitudes.push_back(
          aggregator.Accumulate(c, runner->AggregationWeight(c), update));
    }
    aggregator.Finalize(global, &groups_updated);
    downlink.AdvanceGroups(groups_updated);
    if (transport != nullptr) mirror.AdvanceGroups(groups_updated);
  }

  if (is_fedda) {
    obs::ScopedSpan mask_span(tracer, "mask-update", "round", round);
    runner->UpdateActivation(participants, magnitudes, &state, rng);
  }

  record.active_after_round = state.num_active_clients();
  Evaluate(round, &record);
  FinishRound(std::move(record));
}

void FederatedRunner::RoundLoop::RunSemiAsyncRound(int round) {
  obs::ScopedSpan round_span(tracer, "round", "round", round);
  if (ctr_rounds != nullptr) ctr_rounds->Increment();
  const SemiAsyncOptions& sa = options().semi_async;
  RoundRecord record;
  record.round = round;

  // 1. Select, force reactivation if dynamic deactivation emptied the
  // active set, and keep only clients without an update already in flight.
  std::vector<int> selected = runner->SelectParticipants(&state, rng);
  if (is_fedda) ForceReactivation(&selected, round, &record);
  std::vector<int> starters;
  for (int c : selected) {
    if (!in_flight[static_cast<size_t>(c)]) starters.push_back(c);
  }
  record.started = static_cast<int>(starters.size());

  // 2. Dropout decisions on the coordinator, in starter order (never on
  // pool workers), so the event schedule is a pure function of the seed.
  std::vector<int> trainers;
  std::vector<int> dropouts;
  for (int c : starters) {
    if (options().client_failure_prob > 0.0 &&
        rng->Bernoulli(options().client_failure_prob)) {
      dropouts.push_back(c);
    } else {
      trainers.push_back(c);
    }
  }

  // 3. Every starter receives the broadcast now (dropouts crash later,
  // mid-flight: their downlink was still spent).
  const ParameterStore& broadcast = *global;
  {
    obs::ScopedSpan wire_span(tracer, "wire-encode", "round", round);
    for (int c : starters) {
      pending[static_cast<size_t>(c)].downlink_bytes =
          ChargeDownlink(c, broadcast, round, &record);
    }
  }

  // 4. Local training (dropouts never deliver, so simulating their wasted
  // epochs would only burn host time; they draw no RNG either).
  const std::vector<double> losses = TrainClients(trainers, broadcast,
                                                  round);

  // 5. Schedule events at NetworkModel-derived virtual times. Uplink
  // accounting is captured now (the masks the client trained under) and
  // charged when the update arrives.
  const double now = queue.virtual_now();
  const NetworkModel& net = sa.network;
  auto speed_of = [&](int c) {
    return sa.client_speed.empty()
               ? 1.0
               : sa.client_speed[static_cast<size_t>(c)];
  };
  const double compute_sec =
      static_cast<double>(options().local.local_epochs) *
      net.compute_sec_per_epoch;
  std::vector<int> all_groups(static_cast<size_t>(num_groups));
  for (int gid = 0; gid < num_groups; ++gid) {
    all_groups[static_cast<size_t>(gid)] = gid;
  }
  {
    obs::ScopedSpan sched_span(tracer, "event-schedule", "round", round);
    for (size_t p = 0; p < trainers.size(); ++p) {
      const int c = trainers[p];
      Pending& entry = pending[static_cast<size_t>(c)];
      entry.loss = losses[p];
      entry.uplink_groups =
          is_fedda ? state.TransmittedGroups(c)
                   : static_cast<int64_t>(num_groups);
      entry.uplink_scalars = is_fedda ? state.TransmittedScalars(c)
                                      : global->num_scalars();
      const WirePayload uplink =
          is_fedda ? BuildUplinkPayload(state, c, round, client(c)->params())
                   : BuildDenseUplinkPayload(all_groups, c, round,
                                             client(c)->params());
      entry.uplink_bytes = uplink.EncodedBytes();
      const double duration =
          speed_of(c) *
          (net.round_latency_sec +
           static_cast<double>(entry.downlink_bytes) /
               net.downlink_bytes_per_sec +
           compute_sec +
           static_cast<double>(entry.uplink_bytes) /
               net.uplink_bytes_per_sec);
      queue.Push(now + duration, EventKind::kArrival, c, round);
      in_flight[static_cast<size_t>(c)] = 1;
    }
    for (int c : dropouts) {
      // Crashed before upload: latency + downlink + compute, no uplink
      // term.
      const double duration =
          speed_of(c) *
          (net.round_latency_sec +
           static_cast<double>(
               pending[static_cast<size_t>(c)].downlink_bytes) /
               net.downlink_bytes_per_sec +
           compute_sec);
      queue.Push(now + duration, EventKind::kDeparture, c, round);
      in_flight[static_cast<size_t>(c)] = 1;
    }
  }

  // 6. Drain the queue until the buffer holds K arrivals (or nothing is in
  // flight). Departures are processed as encountered: the client's cached
  // model is invalidated so its rejoin is charged as a full resync.
  const int buffer_k = sa.buffer_size;
  std::vector<int> aggregated;
  std::vector<std::vector<double>> magnitudes;
  std::vector<uint8_t> groups_updated;
  double loss_sum = 0.0;
  double staleness_sum = 0.0;
  {
    obs::ScopedSpan agg_span(tracer, "aggregate", "round", round);
    StreamingAggregator::Config config;
    config.fedda = is_fedda;
    config.scalar_granularity = scalar_gran;
    StreamingAggregator aggregator(global, &state, all_groups, config);
    while (!queue.empty() &&
           (buffer_k <= 0 ||
            static_cast<int>(aggregated.size()) < buffer_k)) {
      const Event event = queue.Pop();
      result.events.push_back(event);
      const int c = event.client;
      in_flight[static_cast<size_t>(c)] = 0;
      if (event.kind == EventKind::kDeparture) {
        downlink.InvalidateClient(c);
        ++record.departures;
        if (ctr_departures != nullptr) ctr_departures->Increment();
        continue;
      }
      const int staleness = round - event.round;
      const double weight =
          runner->AggregationWeight(c) /
          std::pow(1.0 + static_cast<double>(staleness),
                   sa.staleness_exponent);
      const Pending& entry = pending[static_cast<size_t>(c)];
      record.uplink_groups += entry.uplink_groups;
      record.uplink_scalars += entry.uplink_scalars;
      record.max_uplink_scalars =
          std::max(record.max_uplink_scalars, entry.uplink_scalars);
      record.uplink_bytes += entry.uplink_bytes;
      record.max_uplink_bytes =
          std::max(record.max_uplink_bytes, entry.uplink_bytes);
      loss_sum += entry.loss;
      staleness_sum += static_cast<double>(staleness);
      const ParameterStore update = client(c)->TakeUpdate();
      magnitudes.push_back(aggregator.Accumulate(c, weight, update));
      aggregated.push_back(c);
    }
    if (!aggregated.empty()) {
      aggregator.Finalize(global, &groups_updated);
      downlink.AdvanceGroups(groups_updated);
    }
  }
  record.virtual_time_sec = queue.virtual_now();

  if (aggregated.empty()) {
    // Nothing reached the buffer (everyone in flight dropped out, or no
    // one was eligible to start): no aggregation, NaN loss.
    record.mean_local_loss = std::numeric_limits<double>::quiet_NaN();
  } else {
    record.participants = static_cast<int>(aggregated.size());
    record.mean_local_loss =
        loss_sum / static_cast<double>(aggregated.size());
    record.mean_staleness =
        staleness_sum / static_cast<double>(aggregated.size());
    if (is_fedda) {
      obs::ScopedSpan mask_span(tracer, "mask-update", "round", round);
      runner->UpdateActivation(aggregated, magnitudes, &state, rng);
    }
  }

  record.active_after_round = state.num_active_clients();
  Evaluate(round, &record);
  FinishRound(std::move(record));
}

FlRunResult FederatedRunner::Run(ParameterStore* global_store,
                                 core::Rng* rng) {
  // Observability. Tracing and metrics read state the run produces anyway —
  // they never draw randomness or alter control flow, so enabling them
  // cannot perturb seeded results.
  obs::ScopedSpan run_span(options_.tracer, "run");
  RoundLoop loop(this, global_store, rng);
  loop.result.aggregation_mode = options_.aggregation_mode;
  const bool semi_async =
      options_.aggregation_mode == AggregationMode::kSemiAsync;
  for (int round = 0; round < options_.rounds; ++round) {
    if (semi_async) {
      loop.RunSemiAsyncRound(round);
    } else {
      loop.RunSyncRound(round);
    }
  }
  loop.result.final_auc = loop.result.history.back().auc;
  loop.result.final_mrr = loop.result.history.back().mrr;
  return std::move(loop.result);
}

}  // namespace fedda::fl
