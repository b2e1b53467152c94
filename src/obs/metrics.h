// Metrics registry: counters, gauges, and fixed-bucket histograms with a
// Prometheus-style text exposition writer.
//
// Metrics are driver-thread state (DESIGN.md §10): every write happens on
// the simulation driver thread, never inside a ThreadPool parallel_for
// body, so each metric is a plain double (a histogram: one cell vector and
// one sum) and a scrape reads it as it stands.  Work done in pool lanes is
// counted on the driver once the pool joins, from the slots the lanes
// filled.  Every write DGS_DCHECKs that it runs outside a parallel region;
// the TSan lane catches the rest.
//
// Metric objects are owned by their Registry and have stable addresses for
// the registry's lifetime.  A registry is a view, not a ledger: a
// core::Session keeps every count it publishes and checkpoints those
// counts itself, so no registry state is ever saved or restored.  Naming
// follows the Prometheus convention documented in DESIGN.md §10:
// `dgs_<area>_<what>[_<unit>][_total]`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dgs::obs {

namespace internal {
/// The one rule of the metrics layer: writes stay on the driver thread.
inline void dcheck_driver_thread() {
  DGS_DCHECK(!util::in_parallel_region(),
             "metric written inside a parallel_for body; count the lanes' "
             "work on the driver thread once the pool joins");
}
}  // namespace internal

/// Monotonically increasing value (Prometheus counter).
class Counter {
 public:
  void inc(double v = 1.0) {
    internal::dcheck_driver_thread();
    value_ += v;
  }
  double value() const { return value_; }

  /// Replaces the value: publishing a value kept in another ledger
  /// (DESIGN.md §10).
  void reset_to(double v) {
    internal::dcheck_driver_thread();
    value_ = v;
  }

 private:
  double value_ = 0.0;
};

/// Last-write-wins instantaneous value (Prometheus gauge).
class Gauge {
 public:
  void set(double v) {
    internal::dcheck_driver_thread();
    value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram (Prometheus histogram: cumulative `le` buckets
/// plus `_sum` and `_count`).  Bucket upper bounds are set at registration
/// and immutable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);
  /// Cumulative count of observations <= upper_bounds()[i].
  std::uint64_t cumulative_bucket(std::size_t i) const;
  std::uint64_t count() const;
  double sum() const { return sum_; }
  const std::vector<double>& upper_bounds() const { return bounds_; }

  /// Non-cumulative per-bucket counts; size is upper_bounds().size() + 1
  /// with the overflow (+Inf) cell last.
  const std::vector<std::uint64_t>& cells() const { return cells_; }
  /// Replaces the cells (as returned by cells()) and the running sum:
  /// publishing a histogram kept in another ledger, and restoring that
  /// ledger from a checkpoint.
  void reset_to(std::span<const std::uint64_t> cells, double sum);

 private:
  std::vector<double> bounds_;        ///< Strictly ascending, finite.
  std::vector<std::uint64_t> cells_;  ///< One per bucket, overflow last.
  double sum_ = 0.0;
};

/// Owns every metric of one run/process and renders the Prometheus text
/// exposition.  Registration, like every write, happens on the driver
/// thread; returned pointers are stable for the registry's lifetime.
/// Re-registering a name returns the existing instance (types must match).
class Registry {
 public:
  Counter* counter(const std::string& name, const std::string& help);
  Gauge* gauge(const std::string& name, const std::string& help);
  Histogram* histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds);

  /// Prometheus text exposition, families in ascending name order (a
  /// deterministic scrape for byte-comparison tests).
  void write_prometheus(std::ostream& out) const;

  /// Number of sample series the exposition would emit (one per counter or
  /// gauge; buckets + sum + count per histogram).
  std::size_t series_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name, Kind kind,
                   const std::string& help);

  std::map<std::string, Entry> entries_;  ///< Sorted for stable exposition.
};

/// Shortest round-trip-exact rendering of `v`: "%g" when it reads back
/// equal ("17" stays "17"), else "%.17g".  Every sample value of the
/// Prometheus text and every number of the event log is written by it.
std::string round_trip_number(double v);

/// Reads one sample back out of a Prometheus text exposition: the value of
/// the line whose metric name equals `name` exactly (no label matching —
/// DGS series are unlabelled except histogram buckets, whose `name{le=...}`
/// form never equals a bare name).  Returns false when absent or when the
/// value is not one whole number.  This is
/// the snapshot half of the round trip: write_prometheus produced the
/// text, and the campaign aggregator folds per-run snapshots back into
/// campaign-level counters (DESIGN.md §12).
bool read_prometheus_sample(std::string_view exposition,
                            std::string_view name, double* out);

}  // namespace dgs::obs
