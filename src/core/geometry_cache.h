// Memoized per-step propagation and visibility geometry.
//
// The simulator and the look-ahead planner both query the contact graph on
// the same fixed time grid (one query per scheduling quantum — and, with
// look-ahead replanning or repeated planning sweeps, the same epoch many
// times).  Everything weather-independent about such a query is a pure
// function of (satellite set, station set, epoch): the SGP4 state + ECEF
// position of every satellite, and per station the satellites above its
// elevation mask with their elevation/range.  This cache stores that
// geometry keyed by the integer step index on the grid, so an epoch is
// propagated at most once per horizon instead of up to `lookahead_steps`
// times.
//
// Invalidation rules (DESIGN.md §9): entries are immutable once computed —
// the satellite and station sets a VisibilityEngine is built over never
// change, so a cached step can only become useless, never wrong.  Capacity
// is bounded; when full, the oldest step is evicted (the simulation clock
// only moves forward).  Off-grid epochs bypass the cache entirely.
//
// Sizing (DESIGN.md §14): at constellation scale one step holds tens of
// thousands of satellite positions plus the per-station visibility lists,
// so a step-count bound alone can balloon to gigabytes.  The cache is
// therefore additionally bounded by an estimated byte footprint
// (`max_bytes`), evicting oldest-first until under budget.  Eviction is a
// capacity policy only — it can never change produced values.
//
// Thread-safety: find/emplace are called only from the thread driving the
// simulation; worker threads fill the (pre-sized) vectors of the entry they
// were handed, writing disjoint indices.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/time.h"
#include "src/util/vec3.h"

namespace dgs::core {

/// One satellite above a station's elevation mask at a step, with the
/// topocentric geometry the link budget needs.
struct VisibleSat {
  int sat = 0;
  double elevation_rad = 0.0;
  double range_km = 0.0;
};

/// Checkpoint serialization (core/checkpoint.h).
template <class Ar>
void io(Ar& ar, VisibleSat& v) {
  ar.i32(v.sat);
  ar.f64(v.elevation_rad);
  ar.f64(v.range_km);
}

/// Weather-independent geometry of one scheduling step.
struct StepGeometry {
  std::vector<util::Vec3> sat_ecef;  ///< Per satellite, index-aligned.
  /// Per station: satellites above the mask (owner constraints applied),
  /// in ascending satellite order.
  std::vector<std::vector<VisibleSat>> per_station;
};

template <class Ar>
void io(Ar& ar, StepGeometry& g) {
  ar.seq(g.sat_ecef);
  ar.seq(g.per_station,
         [](auto& a, std::vector<VisibleSat>& vis) { a.seq(vis); });
}

class GeometryCache {
 public:
  /// Default byte budget for resident step geometry (256 MiB).
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{256} << 20;

  /// Steps are `step_seconds` apart starting at `base`; at most
  /// `capacity_steps` entries are retained (≥ the look-ahead window keeps
  /// a whole planning horizon resident), further bounded by `max_bytes`
  /// of estimated entry footprint.  When `metrics` is non-null, the
  /// hit/miss counters live in that registry
  /// (`dgs_geometry_cache_{hits,misses}_total`); otherwise the cache owns
  /// private counters.  Either way there is a single source of truth —
  /// hits()/misses() read whatever counter backs the cache.
  GeometryCache(const util::Epoch& base, double step_seconds,
                int capacity_steps, obs::Registry* metrics = nullptr,
                std::size_t max_bytes = kDefaultMaxBytes);

  /// Step index of `when` if it lies on the grid (sub-millisecond
  /// tolerance); std::nullopt for off-grid epochs, which must not be
  /// cached under a rounded key.
  std::optional<std::int64_t> step_key(const util::Epoch& when) const;

  /// The cached geometry for a step, or nullptr.  Counts hits/misses.
  const StepGeometry* find(std::int64_t key);

  /// Inserts an empty entry for `key` (evicting oldest steps while past
  /// capacity or over the byte budget) and returns it for the caller to
  /// fill in place.  Byte accounting sees an entry's footprint from the
  /// next emplace on (entries are filled in place after insertion).
  StepGeometry& emplace(std::int64_t key);

  std::size_t size() const { return entries_.size(); }
  std::size_t max_bytes() const { return max_bytes_; }
  /// Estimated footprint of the resident entries.
  std::size_t approx_bytes() const;
  std::uint64_t hits() const {
    return static_cast<std::uint64_t>(hits_->value());
  }
  std::uint64_t misses() const {
    return static_cast<std::uint64_t>(misses_->value());
  }

  /// Checkpoint serialization (core/checkpoint.h): the hit/miss counts,
  /// then the resident entries in ascending step order.  Restoring the
  /// contents *and* the counts keeps a resumed run's cache_hit/cache_miss
  /// event deltas — and, with a registry, the scraped counters —
  /// bit-identical to an uninterrupted run.  On read, every entry must
  /// hold one position per satellite, one list per station, and only
  /// satellite indices below `num_sats`.
  template <class Ar>
  void io(Ar& ar, int num_sats, int num_stations) {
    std::uint64_t hit_count = hits();
    std::uint64_t miss_count = misses();
    ar.u64(hit_count);
    ar.u64(miss_count);
    if constexpr (Ar::kReading) {
      hits_->reset_to(static_cast<double>(hit_count));
      misses_->reset_to(static_cast<double>(miss_count));
    }
    ar.map(entries_, [&](auto& a, auto& key, StepGeometry& geom) {
      a.i64(key);
      a.obj(geom);
      a.check_size(geom.sat_ecef.size(), static_cast<std::size_t>(num_sats));
      a.check_size(geom.per_station.size(),
                   static_cast<std::size_t>(num_stations));
      for (const std::vector<VisibleSat>& vis : geom.per_station) {
        for (const VisibleSat& v : vis) a.check_index(v.sat, num_sats);
      }
    });
  }

 private:
  util::Epoch base_;
  double step_seconds_;
  std::size_t capacity_;
  std::size_t max_bytes_;
  /// Ordered by step: eviction removes the oldest entry first.
  std::map<std::int64_t, StepGeometry> entries_;
  /// Backing for the standalone (no-registry) case.
  std::unique_ptr<obs::Counter> own_hits_;
  std::unique_ptr<obs::Counter> own_misses_;
  obs::Counter* hits_;    ///< Registry-owned or own_hits_.
  obs::Counter* misses_;  ///< Registry-owned or own_misses_.
};

}  // namespace dgs::core
