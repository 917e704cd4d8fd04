// Order statistics over one run's samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

// Linear interpolation between closest ranks; q in [0, 1]. 0 when empty.
// Takes its own copy: selection reorders it.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b =
      static_cast<double>(*std::min_element(v.begin() + lo + 1, v.end()));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

template <class T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

}  // namespace perfbench
