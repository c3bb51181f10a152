#ifndef FEDBENCH_SEAMS_H_
#define FEDBENCH_SEAMS_H_

// Timing seams the benchmark plugs into the library's public extension
// points. Nothing here reaches inside src/: the runner sees an ordinary
// Evaluator, TrainableTask and Transport.

#include <memory>
#include <utility>
#include <vector>

#include "fl/runner.h"
#include "fl/transport.h"
#include "hgn/link_prediction.h"
#include "hgn/task.h"
#include "net/socket.h"

namespace fedbench {

inline double Now() { return fedda::net::MonotonicSeconds(); }

/// Wall-clock interval [start, end] in MonotonicSeconds.
struct Span {
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

/// Round boundaries as the benchmark's Evaluator sees them. The runner
/// evaluates at the end of every round, so the clock read right after the
/// evaluation closes the round.
struct RoundClock {
  double run_start = 0.0;
  /// Per round: when evaluation finished (the round boundary).
  std::vector<double> round_end;
  /// Per round: evaluation interval. Traced runs only.
  std::vector<Span> eval;
};

/// The runner's built-in link-prediction evaluation, rebuilt from public
/// calls so the benchmark can stamp it. `options.pool` is sized like the
/// runner's own pool (the built-in evaluation borrows that one), so both
/// score with the same parallelism and, the pool being bit-exact, the same
/// numbers.
struct EvalTarget {
  const fedda::hgn::SimpleHgn* model = nullptr;
  const fedda::graph::HeteroGraph* graph = nullptr;
  const fedda::hgn::MpStructure* mp = nullptr;
  const std::vector<fedda::graph::EdgeId>* test_edges = nullptr;
  fedda::hgn::EvalOptions options;
};

/// Untraced: one clock read per round. Traced: also times the evaluation.
inline fedda::fl::FederatedRunner::Evaluator MakeEvaluator(
    const EvalTarget& target, RoundClock* clock, bool traced) {
  return [target, clock, traced](fedda::tensor::ParameterStore* store,
                                 fedda::core::Rng* rng) {
    const double start = traced ? Now() : 0.0;
    const fedda::hgn::EvalResult result = fedda::hgn::EvaluateLinkPrediction(
        *target.model, *target.graph, *target.mp, *target.test_edges, store,
        target.options, rng);
    const double end = Now();
    clock->round_end.push_back(end);
    if (traced) clock->eval.push_back({start, end});
    return std::make_pair(result.auc, result.mrr);
  };
}

/// Times every TrainRound of one client. Each client owns its slot and a
/// client never runs two updates at once, so pool workers record without
/// sharing a lock; the slots are read only after FederatedRunner::Run
/// returns.
class TimedTask final : public fedda::hgn::TrainableTask {
 public:
  TimedTask(std::unique_ptr<fedda::hgn::TrainableTask> inner,
            std::vector<Span>* slot)
      : inner_(std::move(inner)), slot_(slot) {}

  double TrainRound(fedda::tensor::ParameterStore* store,
                    const fedda::hgn::TrainOptions& options,
                    fedda::core::Rng* rng) const override {
    const double start = Now();
    const double loss = inner_->TrainRound(store, options, rng);
    slot_->push_back({start, Now()});
    return loss;
  }
  int64_t num_examples() const override { return inner_->num_examples(); }

 private:
  std::unique_ptr<fedda::hgn::TrainableTask> inner_;
  std::vector<Span>* slot_;
};

/// What the Transport decorator saw over one run.
struct TransportLog {
  std::vector<Span> rounds;
  int64_t uplink_bytes = 0;
};

/// Times SocketTransport::ExecuteRound and sums the encoded size of every
/// uplink the server receives.
class TimedTransport final : public fedda::fl::Transport {
 public:
  TimedTransport(fedda::fl::Transport* inner, TransportLog* log)
      : inner_(inner), log_(log) {}

  std::vector<fedda::fl::TransportReply> ExecuteRound(
      const std::vector<fedda::fl::TransportTask>& tasks) override {
    const double start = Now();
    std::vector<fedda::fl::TransportReply> replies =
        inner_->ExecuteRound(tasks);
    log_->rounds.push_back({start, Now()});
    for (const fedda::fl::TransportReply& reply : replies) {
      if (reply.ok) log_->uplink_bytes += reply.uplink.EncodedBytes();
    }
    return replies;
  }
  bool ClientAlive(int client) const override {
    return inner_->ClientAlive(client);
  }

 private:
  fedda::fl::Transport* inner_;
  TransportLog* log_;
};

}  // namespace fedbench

#endif  // FEDBENCH_SEAMS_H_
