// Tracing must be a pure observer: attaching a Tracer to a seeded run may
// not change a single bit of its results, with or without the worker pool.
// Also validates that the spans a real federated run produces are
// well-formed: properly nested per thread and exportable as structurally
// sound Chrome trace JSON.

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/experiment.h"
#include "obs/trace.h"

namespace fedda::fl {
namespace {

SystemConfig TraceSystemConfig() {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 4;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;
  return config;
}

FlOptions TraceOptions(FlAlgorithm algorithm, int worker_threads) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 3;
  options.local.local_epochs = 1;
  options.eval.max_edges = 128;
  options.eval.mrr_negatives = 5;
  options.worker_threads = worker_threads;
  return options;
}

/// Bitwise equality of two run results: every RoundRecord field of every
/// round and every event, doubles compared through %.17g strings so a
/// failure message shows the exact values.
void ExpectIdenticalResults(const FlRunResult& a, const FlRunResult& b) {
  auto d = [](double x) { return core::StrFormat("%.17g", x); };
  EXPECT_EQ(d(a.final_auc), d(b.final_auc));
  EXPECT_EQ(d(a.final_mrr), d(b.final_mrr));
  EXPECT_EQ(EveryField(a), EveryField(b));
}

TEST(TraceDeterminismTest, TracedRunIsBitIdenticalSequential) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  FlOptions plain = TraceOptions(FlAlgorithm::kFedDaRestart, 0);
  const FlRunResult untraced = RunFederated(system, plain, 123);

  obs::Tracer tracer;
  FlOptions traced_options = plain;
  traced_options.tracer = &tracer;
  const FlRunResult traced = RunFederated(system, traced_options, 123);

  ExpectIdenticalResults(untraced, traced);
  // The tracer actually observed the run (not silently disconnected).
  EXPECT_GT(tracer.Collect().size(), 0u);
}

TEST(TraceDeterminismTest, TracedRunIsBitIdenticalWithFourWorkers) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  FlOptions plain = TraceOptions(FlAlgorithm::kFedAvg, 4);
  const FlRunResult untraced = RunFederated(system, plain, 123);

  obs::Tracer tracer;
  FlOptions traced_options = plain;
  traced_options.tracer = &tracer;
  const FlRunResult traced = RunFederated(system, traced_options, 123);

  ExpectIdenticalResults(untraced, traced);
}

TEST(TraceDeterminismTest, SpansNestProperlyUnderFourWorkers) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  obs::Tracer tracer;
  FlOptions options = TraceOptions(FlAlgorithm::kFedDaRestart, 4);
  options.tracer = &tracer;
  const FlRunResult result = RunFederated(system, options, 123);
  ASSERT_EQ(result.history.size(), 3u);

  const std::vector<obs::Span> spans = tracer.Collect();
  ASSERT_GT(spans.size(), 0u);

  // Per thread, any two closed spans are either disjoint or strictly
  // nested, and a deeper span starting inside a shallower one ends inside
  // it too. This is the invariant Chrome's trace viewer relies on.
  std::map<int, std::vector<obs::Span>> by_tid;
  for (const obs::Span& span : spans) {
    EXPECT_GE(span.dur_ns, 0);
    by_tid[span.tid].push_back(span);
  }
  // Note: the pool's caller participates in ParallelFor, so on a loaded
  // single-core machine every client-update may land on the main thread —
  // the number of distinct tids is >= 1, not necessarily > 1.
  EXPECT_GE(by_tid.size(), 1u);
  for (const auto& [tid, thread_spans] : by_tid) {
    for (size_t i = 0; i < thread_spans.size(); ++i) {
      for (size_t j = i + 1; j < thread_spans.size(); ++j) {
        const obs::Span& a = thread_spans[i];
        const obs::Span& b = thread_spans[j];
        const int64_t a_end = a.start_ns + a.dur_ns;
        const int64_t b_end = b.start_ns + b.dur_ns;
        const bool disjoint = a_end <= b.start_ns || b_end <= a.start_ns;
        const bool a_holds_b = a.start_ns <= b.start_ns && b_end <= a_end;
        const bool b_holds_a = b.start_ns <= a.start_ns && a_end <= b_end;
        EXPECT_TRUE(disjoint || a_holds_b || b_holds_a)
            << "tid " << tid << ": spans '" << a.name << "' and '" << b.name
            << "' partially overlap";
      }
    }
  }

  // The runner's taxonomy showed up: run -> round -> phases, plus
  // client-update work on the pool and kernel spans below it.
  std::map<std::string, int> counts;
  for (const obs::Span& span : spans) ++counts[span.name];
  EXPECT_EQ(counts["run"], 1);
  EXPECT_EQ(counts["round"], 3);
  EXPECT_EQ(counts["local-train"], 3);
  EXPECT_EQ(counts["wire-encode"], 3);
  EXPECT_EQ(counts["aggregate"], 3);
  EXPECT_EQ(counts["mask-update"], 3);
  EXPECT_EQ(counts["eval"], 3);
  int total_participants = 0;
  for (const RoundRecord& r : result.history) {
    total_participants += r.participants;
  }
  EXPECT_EQ(counts["client-update"], total_participants);
  EXPECT_GT(counts["hgn-encode"], 0);
  EXPECT_GT(counts["matmul"], 0);
  EXPECT_GT(counts["backward"], 0);

  // The exported JSON is structurally sound Chrome trace_event output.
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  size_t events = 0;
  for (size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       pos += std::strlen("\"ph\":\"X\"")) {
    ++events;
  }
  EXPECT_EQ(events, spans.size());
}

}  // namespace
}  // namespace fedda::fl
