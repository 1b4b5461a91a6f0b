// Summary statistics of the benchmark's timing samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median: the middle sample, or the mean of the two middle samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Geometric mean of positive samples (every sample weighs the same,
/// whatever its magnitude).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The highest percentile with at least `beyond` samples above it, never
/// below the median. `index` is its 0-based rank in ascending order, so
/// `count - 1 - index` samples lie beyond it.
struct Tail {
  double value = 0.0;
  std::size_t index = 0;
  std::size_t count = 0;
  std::size_t samples_beyond() const { return count - 1 - index; }
};

inline Tail tail(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // n / 2 is the upper middle rank: the value there is >= median(v).
  t.index = std::max(n > beyond ? n - 1 - beyond : 0, n / 2);
  t.value = v[t.index];
  return t;
}

}  // namespace perfbench
