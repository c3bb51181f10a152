// fedbench: the end-to-end FedDA benchmark.
//
//   fedbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//
// A workload is a fixed number of sub-runs, each "set up a federated system,
// then run it" on inputs derived from the seed and the sub-run index. One
// pass over the sub-runs is a cycle; the benchmark repeats cycles while
// another one still fits in --seconds (at least one), and checks
// that every repeat of a sub-run reproduces its first run bit for bit.
//
// Untraced (--trace=0) it prints the end-to-end metrics. Traced (--trace=1)
// it runs each sub-run untraced and then traced, checks the two round
// histories are identical, runs the layer probes, and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every metric is measured on every workload. Any failed check exits 1.
//
// The socket workload forks this binary again as --role=client processes;
// traced client processes write their TrainRound spans to a file next to
// the socket, which the server reads once they have exited.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/flags.h"
#include "core/status.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "fl/experiment.h"
#include "fl/runner.h"
#include "net/transport.h"
#include "probes.h"
#include "seams.h"
#include "stats.h"
#include "workloads.h"

namespace fedbench {
namespace {

using fedda::core::Status;
using fedda::core::StrFormat;
using fedda::fl::FlRunResult;
using fedda::fl::RoundRecord;

constexpr int kMaxCycles = 100;
constexpr int kStepProbeReps = 5;
constexpr int kWireProbeReps = 50;
constexpr int kFrameProbeReps = 50;

struct Flags {
  std::string role = "bench";
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  /// Directory for the socket workload's Unix-domain socket files.
  std::string socket_dir = ".";
  /// Client role only.
  int sub_run = 0;
  int client_id = -1;
  std::string address;
};

/// Both ends of the socket workload hash this; the server refuses a client
/// built for another workload, seed or sub-run.
uint64_t Fingerprint(const Flags& flags, int sub_run) {
  return fedda::net::Fingerprint64(StrFormat(
      "fedbench|%s|%" PRId64 "|%d", flags.workload.c_str(), flags.seed,
      sub_run));
}

// -- One run: set up, then run -----------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  FlRunResult result;
  RoundClock clock;
  int64_t model_scalars = 0;
  /// Traced runs: each client's TrainRound intervals.
  std::vector<std::vector<Span>> slots;
  /// Traced socket runs.
  TransportLog transport;
};

/// Where a traced client process leaves its TrainRound spans: beside the
/// socket it connected to.
std::string SpanFile(const std::string& address, int client) {
  return StrFormat("%s.client%d.spans",
                   address.substr(address.find(':') + 1).c_str(), client);
}

/// One "start end" line per TrainRound; MonotonicSeconds is one clock for
/// every process on the host, so the spans line up with the server's.
Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << StrFormat("%.17g %.17g\n", s.start, s.end);
  }
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + path);
}

/// Reads and removes a span file.
Status ReadSpans(const std::string& path, std::vector<Span>* spans) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  Span s;
  while (in >> s.start >> s.end) spans->push_back(s);
  const bool complete = in.eof();
  in.close();
  std::remove(path.c_str());
  return complete ? Status::OK() : Status::IoError("malformed " + path);
}

/// Client processes of one socket run; kills and reaps whatever is left on
/// destruction, so no exit path leaves a process behind.
class Children {
 public:
  Children() = default;
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;
  ~Children() {
    for (const pid_t pid : pids_) kill(pid, SIGKILL);
    Status ignored = Reap();
    (void)ignored;
  }
  Status Spawn(const Flags& flags, int sub_run, int client,
               const std::string& address, bool traced) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--role=client", "--workload=" + flags.workload,
        StrFormat("--seed=%" PRId64, flags.seed),
        StrFormat("--sub_run=%d", sub_run), StrFormat("--client_id=%d", client),
        "--address=" + address, StrFormat("--trace=%d", traced ? 1 : 0)};
    const pid_t pid = fork();
    if (pid < 0) return Status::IoError("fork failed");
    if (pid == 0) {
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    pids_.push_back(pid);
    return Status::OK();
  }
  /// Waits for every child; fails unless all exited cleanly.
  Status Reap() {
    Status result = Status::OK();
    for (const pid_t pid : pids_) {
      int status = 0;
      if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        result = Status::Internal(
            StrFormat("client process %d ended abnormally", pid));
      }
    }
    pids_.clear();
    return result;
  }

 private:
  std::vector<pid_t> pids_;
};

/// Setup covers FederatedSystem::Build, MakeInitialStore, the client build
/// and the runner (for the socket workload also SocketTransport::Create,
/// the client processes and AcceptClients); the run is FederatedRunner::Run.
Status RunRep(const Workload& w, int sub_run, const Flags& flags, bool traced,
              Rep* rep) {
  static int sockets_made = 0;
  const double setup_start = Now();
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(w.system);
  fedda::tensor::ParameterStore store =
      system.MakeInitialStore(w.run_seed);
  rep->model_scalars = store.num_scalars();

  std::vector<std::unique_ptr<fedda::fl::Client>> clients;
  std::vector<LocalShard> shards;
  if (traced) rep->slots.resize(static_cast<size_t>(system.num_clients()));
  if (traced && !w.socket) {
    // FederatedSystem::MakeClients, with each task wrapped in a TimedTask.
    for (int c = 0; c < system.num_clients(); ++c) {
      shards.push_back(BuildLocalShard(system, c));
      clients.push_back(MakeTimedClient(system, c, shards.back(), store,
                                        &rep->slots[static_cast<size_t>(c)]));
    }
  } else {
    clients = system.MakeClients(store);
  }
  const fedda::hgn::MpStructure global_mp =
      system.model().BuildStructure(system.global());
  fedda::core::ThreadPool eval_pool(w.options.worker_threads);
  EvalTarget target{&system.model(), &system.global(), &global_mp,
                    &system.test_edges(), w.options.eval};
  target.options.pool = w.options.worker_threads > 0 ? &eval_pool : nullptr;

  fedda::fl::FlOptions options = w.options;
  std::unique_ptr<fedda::net::SocketTransport> transport;
  std::unique_ptr<TimedTransport> timed_transport;
  Children children;
  if (w.socket) {
    fedda::net::ServerOptions server;
    server.address = StrFormat("unix:%s/fedbench-%d-%d.sock",
                               flags.socket_dir.c_str(), getpid(),
                               sockets_made++);
    server.num_clients = system.num_clients();
    server.fingerprint = Fingerprint(flags, sub_run);
    server.accept_timeout_sec = 60.0;
    server.reply_timeout_sec = 60.0;
    FEDDA_RETURN_IF_ERROR(
        fedda::net::SocketTransport::Create(server, &transport));
    for (int c = 0; c < system.num_clients(); ++c) {
      FEDDA_RETURN_IF_ERROR(
          children.Spawn(flags, sub_run, c, transport->address(), traced));
    }
    FEDDA_RETURN_IF_ERROR(transport->AcceptClients());
    options.transport = transport.get();
    if (traced) {
      timed_transport =
          std::make_unique<TimedTransport>(transport.get(), &rep->transport);
      options.transport = timed_transport.get();
    }
  }
  fedda::fl::FederatedRunner runner(
      std::move(clients), MakeEvaluator(target, &rep->clock, traced),
      options);
  fedda::core::Rng rng(RoundRngSeed(w.run_seed));
  rep->setup_s = Now() - setup_start;

  rep->clock.run_start = Now();
  rep->result = runner.Run(&store, &rng);
  rep->run_s = Now() - rep->clock.run_start;

  if (transport != nullptr) {
    transport->Shutdown();
    FEDDA_RETURN_IF_ERROR(children.Reap());
    for (int c = 0; traced && c < system.num_clients(); ++c) {
      FEDDA_RETURN_IF_ERROR(
          ReadSpans(SpanFile(transport->address(), c),
                    &rep->slots[static_cast<size_t>(c)]));
    }
  }
  if (rep->clock.round_end.size() != rep->result.history.size()) {
    return Status::Internal("evaluator did not run once per round");
  }
  return Status::OK();
}

// -- Client role -------------------------------------------------------------

Status RunClient(const Flags& flags) {
  Workload w;
  FEDDA_RETURN_IF_ERROR(MakeWorkload(
      flags.workload, static_cast<uint64_t>(flags.seed), flags.sub_run, &w));
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(w.system);
  if (flags.client_id < 0 || flags.client_id >= system.num_clients()) {
    return Status::InvalidArgument("--client_id out of range");
  }
  fedda::tensor::ParameterStore mirror = system.MakeInitialStore(w.run_seed);
  LocalShard shard;
  std::vector<Span> spans;
  std::vector<std::unique_ptr<fedda::fl::Client>> clients;
  if (flags.trace != 0) {
    shard = BuildLocalShard(system, flags.client_id);
    clients.resize(static_cast<size_t>(system.num_clients()));
    clients[static_cast<size_t>(flags.client_id)] =
        MakeTimedClient(system, flags.client_id, shard, mirror, &spans);
  } else {
    clients = system.MakeClients(mirror);
  }
  fedda::fl::ActivationState state(system.num_clients(), mirror,
                                   w.options.activation);
  fedda::net::RemoteClientOptions remote;
  remote.address = flags.address;
  remote.client_id = flags.client_id;
  remote.fingerprint = Fingerprint(flags, flags.sub_run);
  remote.dp_noise_std = w.options.dp_noise_std;
  remote.local = w.options.local;
  fedda::net::RemoteClient client(
      clients[static_cast<size_t>(flags.client_id)].get(), &state, &mirror,
      remote);
  FEDDA_RETURN_IF_ERROR(client.Run());
  return flags.trace != 0
             ? WriteSpans(SpanFile(flags.address, flags.client_id), spans)
             : Status::OK();
}

// -- Checks ------------------------------------------------------------------

/// Field-for-field equality of two round histories (doubles compared
/// exactly, i.e. equal at %.17g). Describes the first difference in `why`.
bool SameHistory(const FlRunResult& a, const FlRunResult& b,
                 std::string* why) {
  if (a.history.size() != b.history.size()) {
    *why = StrFormat("%zu vs %zu rounds", a.history.size(), b.history.size());
    return false;
  }
  for (size_t r = 0; r < a.history.size(); ++r) {
    const RoundRecord& x = a.history[r];
    const RoundRecord& y = b.history[r];
    const bool loss_same =
        x.mean_local_loss == y.mean_local_loss ||
        (std::isnan(x.mean_local_loss) && std::isnan(y.mean_local_loss));
    if (x.auc != y.auc || x.mrr != y.mrr || !loss_same ||
        x.participants != y.participants || x.started != y.started ||
        x.departures != y.departures ||
        x.uplink_groups != y.uplink_groups ||
        x.uplink_scalars != y.uplink_scalars ||
        x.uplink_bytes != y.uplink_bytes ||
        x.downlink_scalars != y.downlink_scalars ||
        x.downlink_bytes != y.downlink_bytes ||
        x.active_after_round != y.active_after_round ||
        x.mean_staleness != y.mean_staleness ||
        x.virtual_time_sec != y.virtual_time_sec) {
      *why = StrFormat("round %zu: auc %.17g vs %.17g, uplink %" PRId64
                       " vs %" PRId64 " B, participants %d vs %d",
                       r, x.auc, y.auc, x.uplink_bytes, y.uplink_bytes,
                       x.participants, y.participants);
      return false;
    }
  }
  return true;
}

// -- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// How the value was taken, or why it is missing.
  std::string note;
};

struct Report {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
    metrics.push_back({name, value, unit, note});
  }
  void Fail(const std::string& what) { failures.push_back(what); }
};

/// Every run, indexed [cycle][sub_run].
using Runs = std::vector<std::vector<Rep>>;

template <typename Fn>
std::vector<double> Each(const Runs& runs, Fn fn) {
  std::vector<double> out;
  for (const std::vector<Rep>& cycle : runs) {
    for (const Rep& rep : cycle) out.push_back(fn(rep));
  }
  return out;
}

/// Mean over sub-runs of the per-sub-run median over cycles: seeds vary the
/// work a run does, so sub-runs are averaged; cycles repeat identical work,
/// so their noise is cut with a median.
template <typename Fn>
double MeanOfMedians(const Runs& runs, Fn fn) {
  double total = 0.0;
  const size_t sub_runs = runs.front().size();
  for (size_t k = 0; k < sub_runs; ++k) {
    std::vector<double> values;
    for (const std::vector<Rep>& cycle : runs) values.push_back(fn(cycle[k]));
    total += Median(values);
  }
  return total / static_cast<double>(sub_runs);
}

/// Wall seconds of each round: from the previous round boundary (the run's
/// start for round 0) to the end of this round's evaluation.
std::vector<double> RoundWalls(const RoundClock& clock) {
  std::vector<double> walls;
  double previous = clock.run_start;
  for (const double end : clock.round_end) {
    walls.push_back(end - previous);
    previous = end;
  }
  return walls;
}

/// Median over cycles of the `p`th percentile of the round walls pooled
/// over the cycle's sub-runs (a single run has too few rounds for a tail).
double PooledPercentile(const Runs& runs, double p) {
  std::vector<double> per_cycle;
  for (const std::vector<Rep>& cycle : runs) {
    std::vector<double> walls;
    for (const Rep& rep : cycle) {
      const std::vector<double> w = RoundWalls(rep.clock);
      walls.insert(walls.end(), w.begin(), w.end());
    }
    per_cycle.push_back(Percentile(std::move(walls), p));
  }
  return Median(per_cycle);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return kUnmeasured;
}

bool SemiAsync(const Workload& w) {
  return w.options.aggregation_mode == fedda::fl::AggregationMode::kSemiAsync;
}

/// Client updates begun in one round: a semi-async round records the
/// trainings it started, a synchronous one its participants, whether they
/// replied or departed.
int UpdatesBegun(const Workload& w, const RoundRecord& r) {
  return SemiAsync(w) ? r.started : r.participants + r.departures;
}

/// Client updates attempted and lost over one run.
void CountUpdates(const Workload& w, const Rep& rep, Report* report) {
  for (const RoundRecord& r : rep.result.history) {
    report->attempted += UpdatesBegun(w, r);
    report->failed += r.departures;
  }
}

void AddEndToEnd(const Workload& w, const Runs& runs, double peak_rss_mb,
                 Report* report) {
  const size_t sub_runs = runs.front().size();
  const size_t rounds = runs.front().front().result.history.size();
  const size_t pooled = sub_runs * rounds;
  const double tail = TailPercentile(pooled);
  const std::string over =
      StrFormat("mean over %zu sub-runs of the median of %zu cycles",
                sub_runs, runs.size());

  report->Add("setup_s", Median(Each(runs, [](const Rep& r) {
                return r.setup_s;
              })),
              "s", StrFormat("median of %zu set-ups", sub_runs * runs.size()));
  report->Add("run_s", MeanOfMedians(runs, [](const Rep& r) {
                return r.run_s;
              }),
              "s", StrFormat("%zu rounds, ", rounds) + over);
  // The median is taken per run and then averaged: FedDA's changing
  // participant count makes the pooled rounds a mixture whose median jumps
  // between modes from seed to seed.
  report->Add("round_s.p50", MeanOfMedians(runs, [](const Rep& r) {
                return Median(RoundWalls(r.clock));
              }),
              "s", StrFormat("median of each run's %zu rounds, ", rounds) +
                       over);
  report->Add("round_s.tail", PooledPercentile(runs, tail), "s",
              StrFormat("p%g of %zu rounds, >= 10 beyond it", tail, pooled));

  // The convergence curve averaged over sub-runs crosses the target in
  // round `hit`; tta_s is the mean time the sub-runs took to finish it.
  size_t hit = rounds;
  double best = 0.0;
  for (size_t r = 0; r < rounds && hit == rounds; ++r) {
    double auc = 0.0;
    for (const Rep& rep : runs.front()) auc += rep.result.history[r].auc;
    auc /= static_cast<double>(sub_runs);
    best = std::max(best, auc);
    if (auc >= w.target_auc) hit = r;
  }
  if (hit == rounds) {
    report->Fail(StrFormat("mean test AUC peaked at %.4f, below the %g "
                           "target",
                           best, w.target_auc));
    report->Add("tta_s", kUnmeasured, "s", "target never reached");
  } else {
    report->Add("tta_s", MeanOfMedians(runs, [&](const Rep& r) {
                  return r.clock.round_end[hit] - r.clock.run_start;
                }),
                "s", StrFormat("mean test AUC >= %g after round %zu, ",
                               w.target_auc, hit) +
                         over);
  }

  double final_auc = 0.0;
  int64_t up = 0;
  int64_t down = 0;
  for (const Rep& rep : runs.front()) {
    final_auc += rep.result.final_auc;
    for (const RoundRecord& r : rep.result.history) {
      up += r.uplink_bytes;
      down += r.downlink_bytes;
    }
  }
  const double n = static_cast<double>(sub_runs);
  report->Add("final_auc", final_auc / n, "auc",
              "global test ROC-AUC after the last round, mean over sub-runs");
  report->Add("uplink_mb", static_cast<double>(up) / 1e6 / n, "MB",
              "fl/wire.h bytes per run, from RoundRecord");
  report->Add("downlink_mb", static_cast<double>(down) / 1e6 / n, "MB",
              "fl/wire.h bytes per run, from RoundRecord");
  report->Add("peak_rss_mb", peak_rss_mb, "MB",
              "VmHWM of the server process after the measured runs");
}

// -- Per-layer metrics from traced runs ---------------------------------------

/// One traced run split along its round boundaries.
struct Breakdown {
  double train_round_s = 0.0;  // sum of client updates
  double straggler_s = 0.0;    // sum over rounds of the slowest update
  double span_s = 0.0;         // sum over rounds of the training span
  double eval_s = 0.0;
  double server_s = 0.0;       // round wall - training span - eval
};

/// Lanes that train a round's client updates side by side: the pool's
/// workers plus the calling thread (ThreadPool::ParallelFor runs chunks on
/// it too), or one client process each over sockets.
int TrainingLanes(const Workload& w) {
  return w.socket ? w.system.partition.num_clients
                  : w.options.worker_threads + 1;
}

Breakdown Decompose(const Rep& rep, bool socket) {
  const size_t rounds = rep.clock.round_end.size();
  std::vector<std::vector<Span>> updates(rounds);
  for (const std::vector<Span>& slot : rep.slots) {
    for (const Span& s : slot) {
      // An update belongs to the round whose interval holds its start.
      const size_t r = static_cast<size_t>(
          std::upper_bound(rep.clock.round_end.begin(),
                           rep.clock.round_end.end(), s.start) -
          rep.clock.round_end.begin());
      if (r < rounds) updates[r].push_back(s);
    }
  }
  const std::vector<double> walls = RoundWalls(rep.clock);
  Breakdown out;
  for (size_t r = 0; r < rounds; ++r) {
    // Socket runs train remotely: the span is the ExecuteRound call, which
    // also holds the network and the remote end's framing and wire codec.
    double span = socket && r < rep.transport.rounds.size()
                      ? rep.transport.rounds[r].seconds()
                      : 0.0;
    if (!updates[r].empty()) {
      double first = updates[r].front().start;
      double last = updates[r].front().end;
      double slowest = 0.0;
      for (const Span& s : updates[r]) {
        first = std::min(first, s.start);
        last = std::max(last, s.end);
        slowest = std::max(slowest, s.seconds());
        out.train_round_s += s.seconds();
      }
      if (!socket) span = last - first;
      out.straggler_s += slowest;
    }
    out.span_s += span;
    out.eval_s += rep.clock.eval[r].seconds();
    out.server_s += walls[r] - span - rep.clock.eval[r].seconds();
  }
  return out;
}

struct Probes {
  DataProbe data;  // means over sub-runs
  StepProbe step;
  double wire_s = 0.0;
  double frame_s = 0.0;
};

void AddPerLayer(const Workload& w, const Runs& untraced, const Runs& traced,
                 const Probes& probes, Report* report) {
  const size_t runs = traced.size() * traced.front().size();
  const std::string per_run = StrFormat("mean over %zu traced runs", runs);

  report->Add("data.generate_s", probes.data.generate_s, "s",
              "data::GenerateGraph, mean over sub-runs");
  report->Add("data.partition_s", probes.data.partition_s, "s",
              "PartitionClients + SubgraphFromEdges per client");
  report->Add("graph.client_edges",
              static_cast<double>(probes.data.client_edges), "count",
              "edges of all clients' local graphs, mean over sub-runs");

  const StepProbe& step = probes.step;
  const std::string probe_note = StrFormat(
      "largest client of sub-run 0, full batch, median of %d",
      kStepProbeReps);
  report->Add("hgn.encode_s", step.encode_s, "s",
              "SimpleHgn::Encode, " + probe_note);
  report->Add("hgn.loss_s", step.loss_s, "s", "ScorePairs + BceWithLogits");
  report->Add("tensor.backward_s", step.backward_s, "s", "Graph::Backward");
  report->Add("tensor.optimizer_s", step.optimizer_s, "s", "Adam::Step");
  report->Add("tensor.tape_nodes", static_cast<double>(step.tape_nodes),
              "count", "nodes on the probed step's tape");
  report->Add("hgn.probe_coverage", step.coverage, "ratio",
              StrFormat("probe pieces / one TrainRound of %.4f s",
                        step.train_round_s));

  std::vector<Breakdown> parts;
  for (const std::vector<Rep>& cycle : traced) {
    for (const Rep& rep : cycle) parts.push_back(Decompose(rep, w.socket));
  }
  auto mean_of = [&](double Breakdown::*field) {
    double total = 0.0;
    for (const Breakdown& p : parts) total += p.*field;
    return total / static_cast<double>(parts.size());
  };
  const std::string where = w.socket ? " in the client processes" : "";
  report->Add("hgn.train_round_s", mean_of(&Breakdown::train_round_s), "s",
              "TrainableTask::TrainRound summed per run" + where + ", " +
                  per_run);
  report->Add("hgn.straggler_s", mean_of(&Breakdown::straggler_s), "s",
              "slowest update of each round summed, " + per_run);
  report->Add("hgn.eval_s", mean_of(&Breakdown::eval_s), "s",
              "EvaluateLinkPrediction summed per run, " + per_run);
  report->Add("fl.train_span_s", mean_of(&Breakdown::span_s), "s",
              std::string(w.socket ? "SocketTransport::ExecuteRound"
                                   : "first update start to last update end") +
                  " summed over rounds, " + per_run);
  const int lanes = TrainingLanes(w);
  report->Add("fl.parallel_efficiency",
              mean_of(&Breakdown::train_round_s) /
                  (lanes * mean_of(&Breakdown::span_s)),
              "ratio",
              StrFormat("update seconds / (%d lanes x training span)", lanes));
  report->Add("fl.server_s", mean_of(&Breakdown::server_s), "s",
              "round wall - training span - eval, summed, " + per_run);
  report->Add("fl.wire_roundtrip_s", probes.wire_s, "s",
              StrFormat("uplink Serialize+Deserialize+ApplyTo, median of %d",
                        kWireProbeReps));
  report->Add("net.frame_roundtrip_s", probes.frame_s, "s",
              StrFormat("uplink frame echoed over a Unix socketpair, median "
                        "of %d",
                        kFrameProbeReps));

  int64_t scalars = 0;
  int64_t updates = 0;
  int64_t started = 0;
  double staleness = 0.0;
  double offered = 0.0;
  for (const Rep& rep : traced.front()) {
    for (const RoundRecord& r : rep.result.history) {
      scalars += r.uplink_scalars;
      updates += r.participants;
      started += UpdatesBegun(w, r);
      staleness += r.mean_staleness * r.participants;
      offered += static_cast<double>(r.participants) *
                 static_cast<double>(rep.model_scalars);
    }
  }
  const double sub_runs = static_cast<double>(traced.front().size());
  report->Add("fl.uplink_scalar_ratio", static_cast<double>(scalars) / offered,
              "ratio", "uplink scalars / (updates x model scalars)");
  report->Add("fl.updates", static_cast<double>(updates) / sub_runs, "count",
              "RoundRecord::participants per run");
  report->Add("fl.updates_started", static_cast<double>(started) / sub_runs,
              "count",
              SemiAsync(w) ? "RoundRecord::started per run"
                           : "RoundRecord::participants + departures per run");
  report->Add("fl.mean_staleness", staleness / static_cast<double>(updates),
              "rounds",
              SemiAsync(w) ? "over aggregated updates"
                           : "synchronous: every update aggregates in the "
                             "round it started");

  auto run_s = [](const Rep& r) { return r.run_s; };
  const double plain = MeanOfMedians(untraced, run_s);
  const double timed = MeanOfMedians(traced, run_s);
  report->Add("trace.overhead_s", timed - plain, "s",
              StrFormat("run_s traced %.4f s - untraced %.4f s (%+.1f%%)",
                        timed, plain, 100.0 * (timed - plain) / plain));
}

// -- Output ------------------------------------------------------------------

void Print(const Workload& w, const Report& report) {
  for (const std::string& failure : report.failures) {
    std::printf("[%s] CHECK FAILED: %s\n", w.name.c_str(), failure.c_str());
  }
  for (const Metric& m : report.metrics) {
    if (std::isnan(m.value)) {
      std::printf("[%s] %-22s not measured (%s)\n", w.name.c_str(),
                  m.name.c_str(),
                  m.note.c_str());
    } else {
      std::printf("[%s] %-22s %.6g %s (%s)\n", w.name.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str(), m.note.c_str());
    }
  }
  std::printf("[%s] failed_frac            %" PRId64 "/%" PRId64
              " client updates\n",
              w.name.c_str(), report.failed, report.attempted);
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": {",
      report.failures.empty() ? "true" : "false", report.attempted,
      report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    // NaN only marks a metric that a failed check left unmeasured.
    json += StrFormat(
        "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
        m.name.c_str(),
        std::isnan(m.value) ? "null" : StrFormat("%.17g", m.value).c_str(),
        m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// -- Driver ------------------------------------------------------------------

/// The transport bit-identity contract: the socket run's history equals an
/// in-process fl::RunFederated of the same config.
void CheckSocketAgainstInProcess(const Workload& w, const Rep& rep,
                                 Report* report) {
  fedda::fl::FlOptions options = w.options;
  options.transport = nullptr;
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(w.system);
  const FlRunResult reference =
      fedda::fl::RunFederated(system, options, w.run_seed);
  std::string why;
  if (!SameHistory(rep.result, reference, &why)) {
    report->Fail("socket history differs from the in-process run: " + why);
  }
  int64_t accounted = 0;
  for (const RoundRecord& r : rep.result.history) accounted += r.uplink_bytes;
  if (!rep.transport.rounds.empty() &&
      accounted != rep.transport.uplink_bytes) {
    report->Fail(StrFormat("accounted uplink %" PRId64 " B != %" PRId64
                           " B of uplinks the transport received",
                           accounted, rep.transport.uplink_bytes));
  }
}

Status RunProbes(const std::vector<Workload>& subs, Probes* probes) {
  const int n = static_cast<int>(subs.size());
  for (const Workload& w : subs) {
    const fedda::fl::FederatedSystem system =
        fedda::fl::FederatedSystem::Build(w.system);
    DataProbe data;
    FEDDA_RETURN_IF_ERROR(ProbeData(w, system, &data));
    probes->data.generate_s += data.generate_s / n;
    probes->data.partition_s += data.partition_s / n;
    probes->data.client_edges += data.client_edges / n;
  }
  const Workload& w = subs.front();
  const fedda::fl::FederatedSystem system =
      fedda::fl::FederatedSystem::Build(w.system);
  fedda::core::ThreadPool pool(w.options.worker_threads);
  FEDDA_RETURN_IF_ERROR(ProbeStep(
      w, system, w.options.worker_threads > 0 ? &pool : nullptr,
      kStepProbeReps, &probes->step));
  FEDDA_RETURN_IF_ERROR(
      ProbeWireRoundTrip(w, system, kWireProbeReps, &probes->wire_s));
  return ProbeFrameRoundTrip(w, system, kFrameProbeReps, &probes->frame_s);
}

Status RunBench(const Flags& flags) {
  std::vector<Workload> subs;
  Workload first;
  FEDDA_RETURN_IF_ERROR(MakeWorkload(
      flags.workload, static_cast<uint64_t>(flags.seed), 0, &first));
  for (int k = 0; k < first.sub_runs; ++k) {
    Workload w;
    FEDDA_RETURN_IF_ERROR(MakeWorkload(
        flags.workload, static_cast<uint64_t>(flags.seed), k, &w));
    subs.push_back(std::move(w));
  }
  const Workload& w = subs.front();
  const bool traced = flags.trace != 0;

  Report report;
  Runs untraced;
  Runs timed;
  const double begin = Now();
  double cycle_s = 0.0;
  while (untraced.empty() ||
         (Now() - begin + cycle_s <= flags.seconds &&
          static_cast<int>(untraced.size()) < kMaxCycles)) {
    const double cycle_start = Now();
    untraced.emplace_back(subs.size());
    if (traced) timed.emplace_back(subs.size());
    for (size_t k = 0; k < subs.size(); ++k) {
      const int sub_run = static_cast<int>(k);
      Rep& plain = untraced.back()[k];
      FEDDA_RETURN_IF_ERROR(RunRep(subs[k], sub_run, flags, false, &plain));
      std::string why;
      if (!SameHistory(plain.result, untraced.front()[k].result, &why)) {
        report.Fail(StrFormat("sub-run %d repeat diverged: ", sub_run) + why);
      }
      if (!traced) {
        CountUpdates(subs[k], plain, &report);
        continue;
      }
      Rep& rep = timed.back()[k];
      FEDDA_RETURN_IF_ERROR(RunRep(subs[k], sub_run, flags, true, &rep));
      if (!SameHistory(rep.result, plain.result, &why)) {
        report.Fail(StrFormat("sub-run %d traced history differs from "
                              "untraced: ",
                              sub_run) +
                    why);
      }
      CountUpdates(subs[k], rep, &report);
    }
    cycle_s = Now() - cycle_start;
  }
  // Read before the socket check below, whose in-process reference run
  // would otherwise count towards the server's peak.
  const double peak_rss_mb = PeakRssMb();

  if (w.socket) {
    const Runs& checked = traced ? timed : untraced;
    for (size_t k = 0; k < subs.size(); ++k) {
      CheckSocketAgainstInProcess(subs[k], checked.front()[k], &report);
    }
  }
  if (traced) {
    Probes probes;
    FEDDA_RETURN_IF_ERROR(RunProbes(subs, &probes));
    AddPerLayer(w, untraced, timed, probes, &report);
  } else {
    AddEndToEnd(w, untraced, peak_rss_mb, &report);
  }
  for (const Metric& m : report.metrics) {
    if (std::isnan(m.value)) report.Fail(m.name + " was not measured");
  }
  Print(w, report);
  return report.failures.empty()
             ? Status::OK()
             : Status::Internal("correctness check failed");
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) {
  fedbench::Flags flags;
  fedda::core::FlagParser parser;
  parser.AddString("role", &flags.role, "bench | client");
  parser.AddString("workload", &flags.workload, "workload name");
  parser.AddInt("seed", &flags.seed, "benchmark seed (inputs derive from it)");
  parser.AddDouble("seconds", &flags.seconds, "measuring time per run");
  parser.AddInt("trace", &flags.trace, "0: end-to-end, 1: per-layer");
  parser.AddString("socket_dir", &flags.socket_dir,
                   "directory for Unix-domain socket files");
  parser.AddInt("sub_run", &flags.sub_run, "client role: sub-run index");
  parser.AddInt("client_id", &flags.client_id, "client role: client index");
  parser.AddString("address", &flags.address, "client role: server address");
  fedda::core::Status status = parser.Parse(argc, argv);
  if (status.ok()) {
    status = flags.role == "client" ? fedbench::RunClient(flags)
                                    : fedbench::RunBench(flags);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "fedbench: %s\n", status.message().c_str());
    return 1;
  }
  return 0;
}
