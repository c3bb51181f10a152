#ifndef FEDDA_FL_AGGREGATOR_H_
#define FEDDA_FL_AGGREGATOR_H_

#include <vector>

#include "fl/activation.h"
#include "fl/wire.h"
#include "tensor/parameter_store.h"

namespace fedda::fl {

/// Streaming (running-sum) masked aggregation of uplink payloads.
///
/// Contract: the server aggregates what was sent. Accumulate() folds in
/// exactly the entries an uplink payload carries — never the server's
/// current masks, which a Restart or Explore reactivation may have reset
/// while the update was in flight — so Eq. 6's contributor set for each
/// unit is the set of payloads that carried it. One payload is consumed at
/// a time into per-group running weighted sums and may be freed as soon as
/// Accumulate() returns, so peak server memory is O(model): one set of
/// accumulators plus the payloads in flight.
///
/// Sums are a fixed function of the participant order: one float Axpy per
/// whole group (dense entries) and one double addition per carried scalar
/// (masked entries), so a seeded run is bit-identical across thread
/// counts and across in-process vs. wire execution. The per-participant
/// |delta| magnitudes for the mask update are computed in the same pass.
class StreamingAggregator {
 public:
  /// `reference` holds the pre-round global values the participants trained
  /// on; it must stay alive and unchanged until Finalize(). `state` is null
  /// for FedAvg (dense payloads, no magnitudes); for FedDA it supplies the
  /// unit layout and granularity — its masks are never read.
  StreamingAggregator(const tensor::ParameterStore* reference,
                      const ActivationState* state);

  StreamingAggregator(const StreamingAggregator&) = delete;
  StreamingAggregator& operator=(const StreamingAggregator&) = delete;

  /// Folds one participant's uplink into the running sums with aggregation
  /// weight `weight` (uniform 1.0, task-size proportional, or
  /// staleness-discounted — the caller decides). `uplink` must match the
  /// reference layout; it is not retained.
  ///
  /// Returns the participant's per-unit |delta| magnitudes against the
  /// reference (FedDA; empty for FedAvg): the pseudo-gradient input of the
  /// post-round mask update. A unit the payload did not carry has no
  /// magnitude, so UpdateMasks neither judges it nor counts it in the
  /// threshold.
  std::vector<UnitMagnitude> Accumulate(int client, double weight,
                                        const WirePayload& uplink);

  /// Participants folded in so far.
  int num_consumed() const { return num_consumed_; }

  /// Writes the aggregate into `global` and flags every group written in
  /// `groups_updated` (indexed by group id). Groups and scalars with no
  /// contributors keep their values: `global` must hold the reference
  /// values on entry (passing the same store `reference` points at is the
  /// intended use — the server needs no broadcast copy, because no global
  /// value is overwritten before Finalize()). Call at most once.
  void Finalize(tensor::ParameterStore* global,
                std::vector<uint8_t>* groups_updated);

 private:
  /// Whether `gid` aggregates per scalar (a disentangled group under
  /// scalar-granularity FedDA) rather than as a whole.
  bool PerScalar(int gid) const;

  const tensor::ParameterStore* reference_;
  const ActivationState* state_;
  /// Whole-group accumulators, empty tensors for groups never aggregated.
  /// Allocated lazily on first contribution so an aggressively masked round
  /// costs only the groups it touches.
  std::vector<tensor::Tensor> sums_;
  std::vector<double> total_weight_;
  /// Per-scalar accumulators (double) for PerScalar groups.
  std::vector<std::vector<double>> scalar_sums_;
  std::vector<std::vector<double>> scalar_weights_;
  int num_consumed_ = 0;
  bool finalized_ = false;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_AGGREGATOR_H_
