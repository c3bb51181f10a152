#include "fl/aggregator.h"

#include <cmath>
#include <utility>

#include "core/check.h"
#include "tensor/kernels/kernels.h"

namespace fedda::fl {

using tensor::ParameterStore;
using tensor::Tensor;

StreamingAggregator::StreamingAggregator(const ParameterStore* reference,
                                         const ActivationState* state)
    : reference_(reference), state_(state) {
  FEDDA_CHECK(reference_ != nullptr);
  const size_t num_groups = static_cast<size_t>(reference_->num_groups());
  sums_.resize(num_groups);
  total_weight_.assign(num_groups, 0.0);
  scalar_sums_.resize(num_groups);
  scalar_weights_.resize(num_groups);
}

bool StreamingAggregator::PerScalar(int gid) const {
  return state_ != nullptr &&
         state_->options().granularity == ActivationGranularity::kScalar &&
         state_->GroupFirstUnit(gid) >= 0;
}

std::vector<UnitMagnitude> StreamingAggregator::Accumulate(
    int client, double weight, const WirePayload& uplink) {
  FEDDA_CHECK(!finalized_);
  FEDDA_CHECK_EQ(uplink.total_groups(), reference_->num_groups())
      << "uplink of client " << client << " was built for another model";
  std::vector<UnitMagnitude> magnitudes;
  if (state_ != nullptr) {
    magnitudes.resize(static_cast<size_t>(state_->num_units()));
  }

  // A WirePayload is only ever built by the fl/wire.h builders or
  // Deserialize, so each entry already holds `size` values (dense) or one
  // value per set mask bit (masked).
  for (const WireGroup& entry : uplink.groups()) {
    const int gid = entry.group;
    const size_t g = static_cast<size_t>(gid);
    const Tensor& old = reference_->value(gid);
    FEDDA_CHECK_EQ(entry.size, old.size()) << "group " << gid;
    const bool per_scalar = PerScalar(gid);
    FEDDA_CHECK_EQ(entry.mask.empty(), !per_scalar)
        << "group " << gid << " carried in the wrong encoding";
    const float* values = entry.values.data();

    if (!per_scalar) {
      // Whole group (FedAvg, groups outside [N_d], tensor granularity).
      if (sums_[g].size() == 0) sums_[g] = Tensor(old.rows(), old.cols());
      tensor::kernels::AccumulateAxpy(sums_[g].data(),
                                      static_cast<float>(weight), values,
                                      entry.size, nullptr);
      total_weight_[g] += weight;
      const int64_t unit = state_ == nullptr ? -1 : state_->GroupFirstUnit(gid);
      if (unit >= 0) {
        // Tensor-granularity magnitude: mean |delta| over the group, in
        // Tensor::Sub + AbsMean's arithmetic.
        double total = 0.0;
        for (int64_t s = 0; s < entry.size; ++s) {
          total += std::fabs(values[s] - old.data()[s]);
        }
        magnitudes[static_cast<size_t>(unit)] =
            entry.size == 0 ? 0.0 : total / static_cast<double>(entry.size);
      }
      continue;
    }

    // Scalar granularity on a disentangled group: the carried scalars are
    // the set mask bits, in group order.
    std::vector<double>& sums = scalar_sums_[g];
    std::vector<double>& weights = scalar_weights_[g];
    if (sums.empty()) {
      sums.assign(static_cast<size_t>(entry.size), 0.0);
      weights.assign(static_cast<size_t>(entry.size), 0.0);
    }
    const int64_t first_unit = state_->GroupFirstUnit(gid);
    size_t next_value = 0;
    for (int64_t s = 0; s < entry.size; ++s) {
      if (!(entry.mask[static_cast<size_t>(s / 8)] & (1u << (s % 8)))) {
        continue;
      }
      const float value = values[next_value++];
      sums[static_cast<size_t>(s)] += weight * value;
      weights[static_cast<size_t>(s)] += weight;
      magnitudes[static_cast<size_t>(first_unit + s)] =
          std::fabs(value - old.data()[s]);
    }
  }
  ++num_consumed_;
  return magnitudes;
}

void StreamingAggregator::Finalize(ParameterStore* global,
                                   std::vector<uint8_t>* groups_updated) {
  FEDDA_CHECK(!finalized_);
  finalized_ = true;
  groups_updated->assign(static_cast<size_t>(global->num_groups()), 0);

  for (int gid = 0; gid < global->num_groups(); ++gid) {
    const size_t g = static_cast<size_t>(gid);

    if (PerScalar(gid)) {
      // Write contributed scalars, keep the rest.
      const std::vector<double>& sums = scalar_sums_[g];
      if (sums.empty()) continue;  // no client carried any scalar
      const std::vector<double>& weights = scalar_weights_[g];
      Tensor& target = global->value(gid);
      const Tensor& old = reference_->value(gid);
      for (int64_t s = 0; s < target.size(); ++s) {
        if (weights[static_cast<size_t>(s)] > 0.0) {
          target.data()[s] = static_cast<float>(
              sums[static_cast<size_t>(s)] / weights[static_cast<size_t>(s)]);
        } else {
          target.data()[s] = old.data()[s];
        }
      }
      (*groups_updated)[g] = 1;
      continue;
    }

    // Whole-group path (FedAvg and FedDA alike): groups with no
    // contributors keep their previous global value.
    if (sums_[g].size() == 0 || total_weight_[g] <= 0.0) continue;
    sums_[g].Scale(1.0f / static_cast<float>(total_weight_[g]));
    global->value(gid) = std::move(sums_[g]);
    (*groups_updated)[g] = 1;
  }
}

}  // namespace fedda::fl
