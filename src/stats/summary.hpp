// Summary statistics used by the paper's evaluation: Jain's fairness index
// (§3: 0.99 / 0.986 / 0.92 on the torus), rank distributions (Fig. 13), and
// basic aggregates.
#pragma once

#include <vector>

namespace mpsim::stats {

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair.
double jain_index(const std::vector<double>& xs);

double mean(const std::vector<double>& xs);
double stddev(const std::vector<double>& xs);
double minimum(const std::vector<double>& xs);
double maximum(const std::vector<double>& xs);

// Value at quantile q in [0,1] using nearest-rank on a copy.
double percentile(std::vector<double> xs, double q);

}  // namespace mpsim::stats
