// Order statistics and CDF helpers used by the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dgs::util {

/// Linear-interpolated percentile of a sample set; `pct` in [0, 100].
/// Throws std::invalid_argument on an empty sample.
double percentile(std::span<const double> sorted_samples, double pct);

/// Accumulates scalar samples and answers percentile / CDF queries.
/// Sorting is deferred and cached; adding samples invalidates the cache.
class SampleSet {
 public:
  SampleSet() = default;
  /// The samples, in insertion order.
  explicit SampleSet(std::vector<double> samples)
      : samples_(std::move(samples)), sorted_(samples_.size() <= 1) {}

  void add(double v);
  void add_all(std::span<const double> vs);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  /// Percentile in [0, 100] with linear interpolation.
  double percentile(double pct) const;
  double median() const { return percentile(50.0); }

  /// Empirical CDF evaluated at x: fraction of samples <= x.
  double cdf(double x) const;

  /// Evenly spaced (x, F(x)) pairs suitable for plotting, `points` >= 2.
  std::vector<std::pair<double, double>> cdf_curve(int points = 100) const;

  /// Sorted view of the samples.
  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Renders "median (p90, p99)" with the given unit suffix — the format the
/// paper uses to report backlog and latency.
std::string summary_row(const SampleSet& s, const std::string& unit);

}  // namespace dgs::util
