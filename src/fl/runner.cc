#include "fl/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/logging.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "fl/aggregator.h"
#include "fl/transport.h"
#include "fl/wire.h"
#include "obs/trace.h"

namespace fedda::fl {

using tensor::ParameterStore;

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

std::vector<std::string> EveryField(const FlRunResult& result) {
  std::vector<std::string> out;
  for (const RoundRecord& r : result.history) {
    out.push_back(core::StrFormat("r%d auc=%.17g mrr=%.17g loss=%.17g ",
                                  r.round, r.auc, r.mrr, r.mean_local_loss));
    out.push_back(core::StrFormat(
        "p=%d ug=%lld us=%lld mus=%lld ub=%lld mub=%lld ", r.participants,
        static_cast<long long>(r.uplink_groups),
        static_cast<long long>(r.uplink_scalars),
        static_cast<long long>(r.max_uplink_scalars),
        static_cast<long long>(r.uplink_bytes),
        static_cast<long long>(r.max_uplink_bytes)));
    out.push_back(core::StrFormat(
        "ds=%lld mds=%lld db=%lld mdb=%lld act=%d st=%d dep=%d stale=%.17g "
        "vt=%.17g fr=%d",
        static_cast<long long>(r.downlink_scalars),
        static_cast<long long>(r.max_downlink_scalars),
        static_cast<long long>(r.downlink_bytes),
        static_cast<long long>(r.max_downlink_bytes), r.active_after_round,
        r.started, r.departures, r.mean_staleness, r.virtual_time_sec,
        r.forced_reactivation ? 1 : 0));
  }
  for (const Event& e : result.events) {
    out.push_back(core::StrFormat("%s c%d r%d t=%.17g #%llu",
                                  EventKindName(e.kind), e.client, e.round,
                                  e.time,
                                  static_cast<unsigned long long>(e.seq)));
  }
  return out;
}

std::string FirstFieldDifference(const FlRunResult& a, const FlRunResult& b) {
  const std::vector<std::string> lines_a = EveryField(a);
  const std::vector<std::string> lines_b = EveryField(b);
  const std::string none = "<none>";
  for (size_t i = 0; i < std::max(lines_a.size(), lines_b.size()); ++i) {
    const std::string& line_a = i < lines_a.size() ? lines_a[i] : none;
    const std::string& line_b = i < lines_b.size() ? lines_b[i] : none;
    if (line_a != line_b) {
      return core::StrFormat("line %zu: %s | %s", i, line_a.c_str(),
                             line_b.c_str());
    }
  }
  return "";
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
    const std::vector<std::vector<UnitMagnitude>>& magnitudes,
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

/// Shared per-run state and the round driver. One instance lives for the
/// whole Run(): the pool, activation state, downlink versions, event
/// queue, and in-flight bookkeeping all persist across rounds.
struct FederatedRunner::RoundLoop {
  FederatedRunner* runner;
  ParameterStore* global;
  core::Rng* rng;
  bool is_fedda;
  bool semi_async;
  int num_groups;
  std::vector<int> all_groups;

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

  FlRunResult result;

  // Event-driven server state (semi-async mode).
  EventQueue queue;
  /// Client has an update (or a scheduled departure) in flight and must not
  /// be re-broadcast until the event is processed.
  std::vector<uint8_t> in_flight;
  /// A client's latest update from the moment its training ends until it
  /// arrives: the same round on a synchronous server, possibly a later one
  /// on a semi-async server. `uplink` is the payload the client sent —
  /// built in-process or received over a transport — and everything the
  /// server charges and aggregates for the update is read off it.
  struct Pending {
    double loss = 0.0;
    int64_t downlink_bytes = 0;
    WirePayload uplink;
  };
  std::vector<Pending> pending;
  /// An update reaching the server this round, and the age in rounds of
  /// the broadcast it trained on.
  struct Arrival {
    int client = 0;
    int staleness = 0;
  };
  /// Transport mode: clients whose reply broke the protocol (an uplink of
  /// the wrong shape, or a non-finite value). They stay departed for the
  /// rest of the run, like a client whose process died.
  std::vector<uint8_t> expelled;

  RoundLoop(FederatedRunner* r, ParameterStore* global_store, core::Rng* g)
      : runner(r), global(global_store), rng(g),
        is_fedda(r->options_.algorithm != FlAlgorithm::kFedAvg),
        semi_async(r->options_.aggregation_mode ==
                   AggregationMode::kSemiAsync),
        num_groups(global_store->num_groups()),
        all_groups(static_cast<size_t>(num_groups)),
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
    std::iota(all_groups.begin(), all_groups.end(), 0);
    local_options.pool = pool_ptr;
    local_options.tracer = tracer;
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
  /// returns the bytes shipped (0 when the client's cache is current). An
  /// empty need-list costs nothing — the round trigger itself is covered
  /// by the timing model's fixed per-round latency.
  int64_t ChargeDownlink(int c, int round, RoundRecord* record) {
    const std::vector<int> need = downlink.ClaimStale(c, RequestedGroups(c));
    int64_t bytes = 0;
    int64_t scalars = 0;
    if (!need.empty()) {
      const WirePayload payload = BuildDownlinkPayload(need, c, round,
                                                       *global);
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

  /// `c`'s update is lost after it received the broadcast (a semi-async
  /// departure event, or a remote process that died or was expelled), and
  /// its cached copy of the model is gone with it, so a rejoin is charged
  /// as a full resync.
  void Depart(int c, RoundRecord* record) {
    ++record->departures;
    downlink.InvalidateClient(c);
    mirror.InvalidateClient(c);
  }

  /// The uplink request set of this round: FedDA clients send under their
  /// masks in `state`; FedAvg clients send the dense `selected_groups`.
  const ActivationState* UplinkMasks() const {
    return is_fedda ? &state : nullptr;
  }

  /// Runs Client::TrainRound for `trainers` in parallel and keeps each
  /// result in `pending`. RNG streams are split from the round RNG in
  /// trainer order before any update starts, so the result is identical
  /// whether updates run sequentially or on the pool. Streaming aggregation
  /// defers every global write to Finalize(), so no value changes while
  /// clients read it.
  void TrainClients(const std::vector<int>& trainers,
                    const std::vector<int>& selected_groups, int round) {
    std::vector<core::Rng> client_rngs;
    client_rngs.reserve(trainers.size());
    for (size_t p = 0; p < trainers.size(); ++p) {
      client_rngs.push_back(rng->Split());
    }
    auto update_one = [&](int64_t p) {
      const int c = trainers[static_cast<size_t>(p)];
      // Runs on a pool worker when worker_threads > 0, exercising the
      // tracer's per-thread span buffers.
      obs::ScopedSpan client_span(tracer, "client-update", "client", c);
      ClientUpdate update = client(c)->TrainRound(
          *global, local_options, options().dp_noise_std, UplinkMasks(),
          selected_groups, round, &client_rngs[static_cast<size_t>(p)]);
      Pending& entry = pending[static_cast<size_t>(c)];
      entry.loss = update.loss;
      entry.uplink = std::move(update.uplink);
    };
    // With zero workers ParallelFor degenerates to the sequential loop;
    // with workers each client update is one chunk and the kernels inside
    // it recursively share the same pool.
    obs::ScopedSpan train_span(tracer, "local-train", "round", round);
    pool.ParallelFor(static_cast<int64_t>(trainers.size()), update_one);
  }

  /// Transport mode's counterpart of TrainClients: ships each trainer its
  /// round task (split RNG state in TrainClients' order, the masks in
  /// force, a mirror resync), collects the replies, and departs trainers
  /// whose process died mid-round or whose reply is not the uplink the
  /// server asked for. Prunes `trainers` to the survivors, whose replies
  /// land in `pending`.
  void ExecuteRemoteRound(std::vector<int>* trainers,
                          const std::vector<int>& selected_groups, int round,
                          RoundRecord* record) {
    std::vector<TransportTask> tasks;
    tasks.reserve(trainers->size());
    for (int c : *trainers) {
      TransportTask task;
      task.client = c;
      task.round = round;
      // One Split() per trainer, in trainer order — the exact draw
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
    for (size_t p = 0; p < replies.size(); ++p) {
      const int c = (*trainers)[p];
      TransportReply& reply = replies[p];
      // A reply can decode cleanly yet not be the uplink this task asked
      // for — another layout, a missing or unrequested group, other mask
      // bits, another header — or carry a non-finite loss or value. Any of
      // these would abort or skew the aggregate, so its sender is expelled
      // here, before anything aggregates.
      if (reply.ok &&
          (!CheckUplinkShape(reply.uplink, UplinkMasks(), selected_groups, c,
                             round, *global)
                .ok() ||
           !AllFinite(reply))) {
        expelled[static_cast<size_t>(c)] = 1;
      }
      if (!reply.ok || expelled[static_cast<size_t>(c)]) {
        // Died, went silent past the read deadline, or was expelled after
        // receiving this round's broadcast.
        Depart(c, record);
        continue;
      }
      delivered.push_back(c);
      Pending& entry = pending[static_cast<size_t>(c)];
      entry.loss = reply.loss;
      entry.uplink = std::move(reply.uplink);
    }
    *trainers = std::move(delivered);
  }

  /// Virtual-time arrival source (semi-async mode): schedules each
  /// trainer's arrival and each dropout's departure at NetworkModel-derived
  /// times, then drains the queue until this round holds `buffer_size`
  /// arrivals (or nothing is in flight). Departures are processed as they
  /// pop.
  std::vector<Arrival> DrainArrivals(const std::vector<int>& trainers,
                                     const std::vector<int>& dropouts,
                                     int round, RoundRecord* record) {
    const SemiAsyncOptions& sa = options().semi_async;
    const NetworkModel& net = sa.network;
    const double now = queue.virtual_now();
    const double compute_sec =
        static_cast<double>(options().local.local_epochs) *
        net.compute_sec_per_epoch;
    // latency + downlink + compute, plus the uplink for an update that
    // gets sent (a dropout crashes before upload: 0 bytes adds exactly 0).
    auto duration = [&](int c, int64_t uplink_bytes) {
      const double speed =
          sa.client_speed.empty() ? 1.0
                                  : sa.client_speed[static_cast<size_t>(c)];
      return speed *
             (net.round_latency_sec +
              static_cast<double>(
                  pending[static_cast<size_t>(c)].downlink_bytes) /
                  net.downlink_bytes_per_sec +
              compute_sec +
              static_cast<double>(uplink_bytes) / net.uplink_bytes_per_sec);
    };
    obs::ScopedSpan sched_span(tracer, "event-schedule", "round", round);
    for (int c : trainers) {
      queue.Push(now + duration(c, pending[static_cast<size_t>(c)]
                                       .uplink.EncodedBytes()),
                 EventKind::kArrival, c, round);
      in_flight[static_cast<size_t>(c)] = 1;
    }
    for (int c : dropouts) {
      queue.Push(now + duration(c, 0), EventKind::kDeparture, c, round);
      in_flight[static_cast<size_t>(c)] = 1;
    }
    std::vector<Arrival> arrivals;
    while (!queue.empty() &&
           (sa.buffer_size <= 0 ||
            static_cast<int>(arrivals.size()) < sa.buffer_size)) {
      const Event event = queue.Pop();
      result.events.push_back(event);
      in_flight[static_cast<size_t>(event.client)] = 0;
      if (event.kind == EventKind::kDeparture) {
        Depart(event.client, record);
      } else {
        arrivals.push_back({event.client, round - event.round});
      }
    }
    record->virtual_time_sec = queue.virtual_now();
    return arrivals;
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
    // Recorded directly (not scheduled): the reactivation happens "now",
    // before anything else this round.
    Event event;
    event.time = queue.virtual_now();
    event.kind = EventKind::kReactivation;
    event.client = -1;
    event.round = round;
    result.events.push_back(event);
  }

  void Evaluate(int round, RoundRecord* record) {
    if (options().eval_every_round || round == options().rounds - 1) {
      obs::ScopedSpan eval_span(tracer, "eval", "round", round);
      std::tie(record->auc, record->mrr) =
          runner->EvaluateGlobal(global, &eval_rng, pool_ptr);
    }
  }

  void RunRound(int round);
};

/// One round of Algorithm 1: select, train, arrive, aggregate, update the
/// masks, evaluate. The modes differ only in where arrivals come from —
/// in-process or remote trainers in participant order (synchronous), or
/// the virtual-time event queue (semi-async).
void FederatedRunner::RoundLoop::RunRound(int round) {
  obs::ScopedSpan round_span(tracer, "round", "round", round);
  RoundRecord record;
  record.round = round;

  // 1. Select, force reactivation if dynamic deactivation emptied the
  // active set, and skip clients with an update still in flight.
  std::vector<int> starters = runner->SelectParticipants(&state, rng);
  ForceReactivation(&starters, round, &record);
  std::erase_if(starters,
                [&](int c) { return in_flight[static_cast<size_t>(c)] != 0; });
  if (semi_async) record.started = static_cast<int>(starters.size());

  // 2. Dropout decisions on the coordinator, in starter order (never on
  // pool workers), so the schedule is a pure function of the seed. A
  // synchronous dropout vanishes before the broadcast; a semi-async one
  // receives it and departs mid-flight. Dropouts never train (their
  // epochs would only burn host time) and draw no RNG.
  std::vector<int> trainers;
  std::vector<int> dropouts;
  for (int c : starters) {
    if (options().client_failure_prob > 0.0 &&
        rng->Bernoulli(options().client_failure_prob)) {
      if (semi_async) dropouts.push_back(c);
    } else {
      trainers.push_back(c);
    }
  }
  if (transport != nullptr) {
    // Clients whose process already departed (or that were expelled)
    // cannot be tasked. They are filtered only *after* every draw above,
    // so a departure-free remote run replays the exact in-process RNG
    // stream.
    std::erase_if(trainers, [&](int c) {
      return !transport->ClientAlive(c) || expelled[static_cast<size_t>(c)];
    });
  }

  // 3. FedAvg's random parameter activation (rate D): one server-side group
  // subset per round, drawn only when someone trains. FedDA transmits per
  // its masks, so every group is nominally "selected".
  std::vector<int> selected_groups = all_groups;
  if (!is_fedda && options().param_fraction < 1.0 && !trainers.empty()) {
    const int take = std::max(
        1, static_cast<int>(
               std::llround(options().param_fraction * num_groups)));
    selected_groups.clear();
    for (size_t idx : rng->SampleWithoutReplacement(
             static_cast<size_t>(num_groups), static_cast<size_t>(take))) {
      selected_groups.push_back(static_cast<int>(idx));
    }
    std::sort(selected_groups.begin(), selected_groups.end());
  }

  // 4. Train in-process, or remotely (which prunes the departed). Either
  // way each trainer's uplink is built under the masks in force *this*
  // round, before the post-aggregation mask update.
  if (transport == nullptr) {
    TrainClients(trainers, selected_groups, round);
  } else {
    ExecuteRemoteRound(&trainers, selected_groups, round, &record);
  }

  // 5. Charge the downlink of every client that received the broadcast.
  // Bytes are measured off real fl/wire.h payloads, so they include entry
  // headers and the bit-packed mask overhead.
  {
    obs::ScopedSpan wire_span(tracer, "wire-encode", "round", round);
    for (int c : dropouts) {
      pending[static_cast<size_t>(c)].downlink_bytes =
          ChargeDownlink(c, round, &record);
    }
    for (int c : trainers) {
      pending[static_cast<size_t>(c)].downlink_bytes =
          ChargeDownlink(c, round, &record);
    }
  }

  // 6. Arrivals: synchronous trainers in participant order, or whatever
  // the event queue delivers this round.
  std::vector<Arrival> arrivals;
  if (semi_async) {
    arrivals = DrainArrivals(trainers, dropouts, round, &record);
  } else {
    for (int c : trainers) arrivals.push_back({c, 0});
  }

  // 7. Streaming aggregation of exactly what each arrival sent, one payload
  // at a time into per-group running sums; each payload is freed as soon
  // as it is folded in, so peak server memory is O(model). The uplink is
  // charged off the same payload. Each update is weighted
  // AggregationWeight(c) / (1 + staleness)^rho; a fresh update divides by
  // pow(1, rho) == 1 exactly.
  std::vector<int> aggregated;
  std::vector<std::vector<UnitMagnitude>> magnitudes;
  double loss_sum = 0.0;
  double staleness_sum = 0.0;
  {
    obs::ScopedSpan agg_span(tracer, "aggregate", "round", round);
    StreamingAggregator aggregator(global, UplinkMasks());
    for (const Arrival& arrival : arrivals) {
      const int c = arrival.client;
      Pending& entry = pending[static_cast<size_t>(c)];
      const int64_t scalars = entry.uplink.PayloadScalars();
      const int64_t bytes = entry.uplink.EncodedBytes();
      record.uplink_groups +=
          static_cast<int64_t>(entry.uplink.groups().size());
      record.uplink_scalars += scalars;
      record.max_uplink_scalars = std::max(record.max_uplink_scalars, scalars);
      record.uplink_bytes += bytes;
      record.max_uplink_bytes = std::max(record.max_uplink_bytes, bytes);
      loss_sum += entry.loss;
      staleness_sum += static_cast<double>(arrival.staleness);
      const double weight =
          runner->AggregationWeight(c) /
          std::pow(1.0 + static_cast<double>(arrival.staleness),
                   options().semi_async.staleness_exponent);
      magnitudes.push_back(aggregator.Accumulate(c, weight, entry.uplink));
      entry.uplink = WirePayload();
      aggregated.push_back(c);
    }
    if (!aggregated.empty()) {
      std::vector<uint8_t> groups_updated;
      aggregator.Finalize(global, &groups_updated);
      downlink.AdvanceGroups(groups_updated);
      mirror.AdvanceGroups(groups_updated);
    }
  }

  if (aggregated.empty()) {
    // Nothing arrived (everyone failed or departed, or nothing was eligible
    // to start): no aggregation. The mean loss is NaN, not 0: zero would
    // read as a perfect round downstream.
    record.mean_local_loss = std::numeric_limits<double>::quiet_NaN();
  } else {
    const double n = static_cast<double>(aggregated.size());
    record.participants = static_cast<int>(aggregated.size());
    record.mean_local_loss = loss_sum / n;
    record.mean_staleness = staleness_sum / n;
    if (is_fedda) {
      obs::ScopedSpan mask_span(tracer, "mask-update", "round", round);
      runner->UpdateActivation(aggregated, magnitudes, &state, rng);
    }
  }

  record.active_after_round = state.num_active_clients();
  Evaluate(round, &record);
  result.history.push_back(std::move(record));
}

FlRunResult FederatedRunner::Run(ParameterStore* global_store,
                                 core::Rng* rng) {
  // Observability. Tracing reads state the run produces anyway — it never
  // draws randomness or alters control flow, so enabling it cannot perturb
  // seeded results.
  obs::ScopedSpan run_span(options_.tracer, "run");
  RoundLoop loop(this, global_store, rng);
  loop.result.aggregation_mode = options_.aggregation_mode;
  for (int round = 0; round < options_.rounds; ++round) loop.RunRound(round);
  loop.result.final_auc = loop.result.history.back().auc;
  loop.result.final_mrr = loop.result.history.back().mrr;
  return std::move(loop.result);
}

}  // namespace fedda::fl
