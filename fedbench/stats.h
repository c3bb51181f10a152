#ifndef FEDBENCH_STATS_H_
#define FEDBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace fedbench {

inline constexpr double kUnmeasured =
    std::numeric_limits<double>::quiet_NaN();

/// Median (mean of the two middle values for even counts); NaN when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return kUnmeasured;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile `p` in (0, 100]; NaN when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return kUnmeasured;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// The highest percentile of the ladder 99.9/99/95/90/75/50 that leaves at
/// least ten of `count` samples above it (50 when even that does not).
inline double TailPercentile(size_t count) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(count) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

}  // namespace fedbench

#endif  // FEDBENCH_STATS_H_
