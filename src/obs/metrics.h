// Metrics registry: counters, gauges, and fixed-bucket histograms with a
// Prometheus-style text exposition writer.
//
// The hot path is lock-free: every Counter/Histogram keeps one cache-line-
// aligned shard per thread slot (relaxed atomic adds, no false sharing), and
// a scrape folds the shards in ascending slot order.  The fold is
// deterministic under the DESIGN.md §9/§10 contract:
//
//   * counts incremented from inside parallel regions are exact small
//     integers, whose double sum is associative — any shard assignment
//     yields the same scraped value for any thread count;
//   * non-integer accumulations (byte totals, latency sums) are only ever
//     incremented from the simulation driver thread, so exactly one shard
//     is nonzero and the fold order is irrelevant;
//   * a value another ledger already holds is published with
//     Counter::reset_to / Gauge::set from the driver thread, which leaves
//     it in one shard as well.
//
// Metric objects are owned by their Registry and have stable addresses for
// the registry's lifetime; hot loops cache the pointers once and never take
// the registry lock again.  Naming follows the Prometheus convention
// documented in DESIGN.md §10: `dgs_<area>_<what>[_<unit>][_total]`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dgs::obs {

/// Number of per-thread shard slots; threads beyond this share slots
/// (atomically — correctness is unaffected, only contention).
inline constexpr int kMetricShards = 32;

namespace internal {
/// Stable per-thread shard slot in [0, kMetricShards): the first thread to
/// ask (the simulation driver) gets slot 0, workers get 1, 2, ...
int this_thread_shard();
}  // namespace internal

/// Monotonically increasing value (Prometheus counter).  `inc` is lock-free
/// and safe from any thread; `value` folds shards in ascending slot order.
class Counter {
 public:
  void inc(double v = 1.0) {
    shards_[static_cast<std::size_t>(internal::this_thread_shard())].cell
        .fetch_add(v, std::memory_order_relaxed);
  }
  double value() const {
    double sum = 0.0;
    for (const Shard& s : shards_) {
      sum += s.cell.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Checkpoint restore: replaces the folded value, placing it in the
  /// *calling thread's* shard so a restored driver thread continues the
  /// exact fetch_add sequence an uninterrupted run would have produced
  /// (driver-thread doubles live in one shard; worker increments are
  /// exact integers, so the fold stays bit-identical — DESIGN.md §16).
  /// Also publishes a value kept in another ledger (DESIGN.md §10).
  /// Not safe concurrently with inc().
  void reset_to(double v);

 private:
  struct alignas(64) Shard {
    std::atomic<double> cell{0.0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value (Prometheus gauge).  Written by the
/// driver thread; readable from anywhere.
class Gauge {
 public:
  void set(double v) { cell_.store(v, std::memory_order_relaxed); }
  double value() const { return cell_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> cell_{0.0};
};

/// Fixed-bucket histogram (Prometheus histogram: cumulative `le` buckets
/// plus `_sum` and `_count`).  Bucket upper bounds are set at registration
/// and immutable; `observe` is lock-free from any thread.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);
  /// Cumulative count of observations <= upper_bounds()[i].
  std::uint64_t cumulative_bucket(std::size_t i) const;
  std::uint64_t count() const;
  double sum() const;
  const std::vector<double>& upper_bounds() const { return bounds_; }

  /// Non-cumulative per-bucket counts folded across shards; size is
  /// upper_bounds().size() + 1 with the overflow (+Inf) cell last.
  std::vector<std::uint64_t> folded_cells() const;
  /// Checkpoint restore: replaces the folded state (cells as returned by
  /// folded_cells(), plus the running sum) into the calling thread's
  /// shard, zeroing the rest.  Same contract as Counter::reset_to.
  void reset_to(std::span<const std::uint64_t> cells, double sum);

 private:
  struct alignas(64) Shard {
    /// One non-cumulative cell per bucket plus the overflow cell.
    std::vector<std::atomic<std::uint64_t>> cells;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;  ///< Strictly ascending, finite.
  std::array<Shard, kMetricShards> shards_;
};

/// One registered metric's folded state, captured by Registry::snapshot()
/// for the dgs.checkpoint.v4 artifact and replayed by Registry::restore().
struct MetricSnapshot {
  std::string name;
  std::string help;
  int kind = 0;  ///< 0 = counter, 1 = gauge, 2 = histogram.
  double value = 0.0;                    ///< Counter/gauge folded value.
  std::vector<double> upper_bounds;      ///< Histogram bucket bounds.
  std::vector<std::uint64_t> cells;      ///< Histogram folded_cells().
  double sum = 0.0;                      ///< Histogram running sum.
};

/// Checkpoint serialization (core/checkpoint.h); `kind` travels as u8.
template <class Ar>
void io(Ar& ar, MetricSnapshot& m) {
  ar.str(m.name);
  ar.str(m.help);
  auto kind = static_cast<std::uint8_t>(m.kind);
  ar.u8(kind);
  if constexpr (Ar::kReading) m.kind = kind;
  ar.f64(m.value);
  ar.column(m.upper_bounds);
  ar.column(m.cells);
  ar.f64(m.sum);
}

/// Owns every metric of one run/process and renders the Prometheus text
/// exposition.  Registration is mutex-guarded (cold); returned pointers are
/// stable for the registry's lifetime and lock-free to update.
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

  /// Every entry's folded state in ascending name order (checkpointing).
  std::vector<MetricSnapshot> snapshot() const;
  /// Re-applies a snapshot: entries are created when absent (matching the
  /// conditional registration of e.g. fault metrics) and reset to the
  /// captured values via the reset_to contract.  Existing entries must
  /// have the same kind.  Call from the driver thread only.
  void restore(std::span<const MetricSnapshot> metrics);

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

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< Sorted for stable exposition.
};

/// Reads one sample back out of a Prometheus text exposition: the value of
/// the line whose metric name equals `name` exactly (no label matching —
/// DGS series are unlabelled except histogram buckets, whose `name{le=...}`
/// form never equals a bare name).  Returns false when absent.  This is
/// the snapshot half of the round trip: write_prometheus produced the
/// text, and the campaign aggregator folds per-run snapshots back into
/// campaign-level counters (DESIGN.md §12).
bool read_prometheus_sample(std::string_view exposition,
                            std::string_view name, double* out);

}  // namespace dgs::obs
