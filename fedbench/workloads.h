#ifndef FEDBENCH_WORKLOADS_H_
#define FEDBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "fl/experiment.h"

namespace fedbench {

/// One federated run of a benchmark workload: the system to synthesize, the
/// run to drive over it, and the fixed AUC target that defines tta_s. A
/// workload is `sub_runs` such runs, each on inputs of its own derived from
/// the benchmark seed and the sub-run index; nothing is read from disk.
struct Workload {
  std::string name;
  int sub_runs = 1;
  fedda::fl::SystemConfig system;
  fedda::fl::FlOptions options;
  /// Model-initialization seed (FederatedSystem::MakeInitialStore) and the
  /// runner's round-RNG seed, both derived from the benchmark seed.
  uint64_t run_seed = 0;
  /// tta_s is the wall time until the global test AUC, averaged over the
  /// sub-runs, first reaches this.
  double target_auc = 0.0;
  /// Clients run as separate processes behind a net::SocketTransport.
  bool socket = false;
};

/// Builds sub-run `sub_run` of workload `name` for benchmark seed `seed`.
[[nodiscard]] fedda::core::Status MakeWorkload(const std::string& name,
                                               uint64_t seed, int sub_run,
                                               Workload* out);

/// The round-RNG seed fl::RunFederated uses for `run_seed`, so the
/// benchmark's runner and the in-process reference draw identical streams.
inline uint64_t RoundRngSeed(uint64_t run_seed) {
  return run_seed ^ 0xF3DDAF3DDAULL;
}

}  // namespace fedbench

#endif  // FEDBENCH_WORKLOADS_H_
