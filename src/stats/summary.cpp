#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"

namespace mpsim::stats {

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double minimum(const std::vector<double>& xs) {
  MPSIM_CHECK(!xs.empty(), "minimum of an empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

double maximum(const std::vector<double>& xs) {
  MPSIM_CHECK(!xs.empty(), "maximum of an empty sample");
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double q) {
  MPSIM_CHECK(!xs.empty() && q >= 0.0 && q <= 1.0,
              "percentile needs data and q in [0, 1]");
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[idx];
}

}  // namespace mpsim::stats
