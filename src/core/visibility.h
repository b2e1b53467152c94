// Contact graph construction (paper §3.1 "Orbit Calculations" and "Graph
// Construction").
//
// For a scheduling instant, the engine propagates every satellite (batched
// SGP4, SoA layout), tests visibility against every station's elevation
// mask and owner constraints, and evaluates the predictive link budget
// (§3.2) with forecast weather to produce the weighted bipartite contact
// graph.
//
// Two optional accelerators, both preserving bit-identical output:
//   * a ThreadPool (set_thread_pool) parallelizes the per-satellite
//     propagation and the per-station visibility + link-budget sweep;
//   * a spatial visibility index (set_spatial_index, ON by default) culls
//     sat x station pairs by groundtrack latitude bands and a conservative
//     visibility-cone test before the precise elevation check, replacing
//     the O(sats x stations) brute-force sweep at constellation scale.
//     The cull is strictly conservative (DESIGN.md §14), so the surviving
//     pairs — and therefore every produced edge — are bit-identical to
//     the brute-force sweep.
//
// A query has two stages, which contacts() runs back to back: geometry()
// propagates the epoch afresh into a scratch StepGeometry the engine
// reuses across calls (which is where the allocation savings at
// constellation scale come from), and edges() samples weather and
// evaluates link budgets over its visibility lists (weather on the calling
// thread, budgets on the pool, DESIGN.md §9).  The engine memoizes
// no geometry: per-instant scheduling queries each step once, while the
// look-ahead planner keeps a window's lists in a core::PlanGeometry and
// reuses them when a replan reaches an instant with the same epoch bits.
// One query splits about evenly between SGP4, the sweep's per-station
// loop, weather and link budgets (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/groundseg/network_gen.h"
#include "src/link/budget.h"
#include "src/link/dvbs2_framing.h"
#include "src/obs/metrics.h"
#include "src/orbit/sgp4_batch.h"
#include "src/util/thread_pool.h"
#include "src/util/vec3.h"
#include "src/weather/provider.h"

namespace dgs::core {

/// One satellite above a station's elevation mask at a step, with the
/// topocentric geometry the link budget needs.
struct VisibleSat {
  int sat = 0;
  double elevation_rad = 0.0;
  double range_km = 0.0;
};

/// The work one geometry computation does, as the dgs_vis_propagations,
/// _cull_candidates and _cull_precise counters count it.
struct GeometryWork {
  std::int64_t propagations = 0;
  std::int64_t cull_candidates = 0;
  std::int64_t cull_precise = 0;
};

/// Weather-independent geometry of one scheduling step.
struct StepGeometry {
  std::vector<util::Vec3> sat_ecef;  ///< Per satellite, index-aligned.
  /// Per station: satellites above the mask (owner constraints applied),
  /// in ascending satellite order.
  std::vector<std::vector<VisibleSat>> per_station;
  GeometryWork work;  ///< What computing it cost.
};

/// One feasible downlink opportunity at an instant.
struct ContactEdge {
  int sat = 0;
  int station = 0;
  double elevation_rad = 0.0;
  double range_km = 0.0;
  double predicted_rate_bps = 0.0;     ///< At the scheduled MODCOD.
  const link::ModCod* modcod = nullptr;  ///< Scheduled (predicted) MODCOD.
  double weight = 0.0;                 ///< Filled in by the scheduler.
};

/// Checkpoint serialization (core/checkpoint.h).
template <class Ar>
void io(Ar& ar, ContactEdge& e) {
  ar.i32(e.sat);
  ar.i32(e.station);
  ar.f64(e.elevation_rad);
  ar.f64(e.range_km);
  ar.f64(e.predicted_rate_bps);
  link::io_modcod(ar, e.modcod);
  ar.f64(e.weight);
}

class VisibilityEngine {
 public:
  /// `forecast_weather` drives the *predicted* budgets; pass nullptr to
  /// schedule assuming clear sky (the weather-blind ablation).  Builds
  /// the link kernels, so a radio or receiver the link model rejects
  /// (link::LinkKernel) throws std::invalid_argument here.
  VisibilityEngine(const std::vector<groundseg::SatelliteConfig>& sats,
                   const std::vector<groundseg::GroundStation>& stations,
                   const weather::WeatherProvider* forecast_weather);

  /// All feasible edges at `when`.  `forecast_lead_s` gives, per satellite,
  /// how stale its uploaded plan is (seconds); empty means zero lead
  /// (a perfectly fresh plan).  `station_down` optionally marks stations
  /// currently unavailable (failure injection); empty means all up.
  /// Edges that cannot close are omitted.  Output (values and order) is
  /// independent of the thread pool and spatial-index configuration.
  /// The same as edges(when, <geometry(when) lists>, ...).
  std::vector<ContactEdge> contacts(
      const util::Epoch& when, std::span<const double> forecast_lead_s = {},
      std::span<const char> station_down = {}) const;

  /// Stage one of contacts(): propagates every satellite to `when`, sweeps
  /// every station's mask and counts the work, parallel over satellites,
  /// then stations, when a pool is set.  Returns the engine's scratch,
  /// valid until the next query.  The result depends on nothing but the
  /// exact bits of `when` (util::Epoch::bits).
  const StepGeometry& geometry(const util::Epoch& when) const;

  /// Adds `work` to the dgs_vis_* counters.  geometry() counts what it
  /// computes; a caller that reuses a geometry counts it again here, so
  /// the counters count per-query work either way (DESIGN.md §10).
  void count_geometry(const GeometryWork& work) const;

  /// Stage two of contacts(): forecast weather and link budgets at `when`
  /// over `visible`, one list per station in ascending satellite order,
  /// as geometry(when) lists them.  Same leads, mask and output contract
  /// as contacts().  The provider is called from this thread only, in
  /// station order; the budgets run on the pool when one is set.
  std::vector<ContactEdge> edges(
      const util::Epoch& when,
      std::span<const std::span<const VisibleSat>> visible,
      std::span<const double> forecast_lead_s = {},
      std::span<const char> station_down = {}) const;

  /// The link budget of satellite `sat` -> station `station` at (range,
  /// elevation) under weather `wx`: evaluate_link with the station's
  /// receiver (its aperture efficiency split across its beams), through
  /// the engine's kernel for the pair's radio and station.  The predicted
  /// budget (edges(), forecast weather) and the realized one (Session,
  /// actual weather) both come from here, so the two cannot drift apart.
  link::LinkBudget link_budget(int sat, int station, double range_km,
                               double elevation_rad,
                               const weather::WeatherSample& wx) const;

  /// Geometry-only visibility (no link budget): elevation above the mask.
  bool visible(int sat, int station, const util::Epoch& when) const;

  /// ECEF position of a satellite at `when` (propagation + rotation).
  util::Vec3 satellite_ecef(int sat, const util::Epoch& when) const;

  /// Borrowed pool parallelizing contacts(); nullptr (default) = serial.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }

  /// Toggles the spatial visibility index (default on).  Off = the
  /// brute-force all-pairs sweep; results are bit-identical either way
  /// (tests/test_visibility_index.cpp pins this).
  void set_spatial_index(bool enabled) { spatial_index_ = enabled; }
  bool spatial_index() const { return spatial_index_; }

  /// Borrowed metrics registry; nullptr (default) disables instrumentation.
  /// Registers the engine's counters (propagations, link budgets, contact
  /// edges, cull candidates/precise tests).
  void set_metrics(obs::Registry* registry);
  obs::Registry* metrics() const { return metrics_; }

  int num_sats() const { return batch_.size(); }
  int num_stations() const { return static_cast<int>(stations_->size()); }
  const groundseg::SatelliteConfig& satellite(int i) const {
    return (*sats_)[i];
  }
  const groundseg::GroundStation& station(int i) const {
    return (*stations_)[i];
  }

 private:
  struct StationGeom {
    util::Vec3 ecef;
    util::Vec3 up;      ///< Geodetic normal (unit).
    util::Vec3 n;       ///< Geocentric direction (unit), ecef / |ecef|.
    double radius_km = 0.0;         ///< |ecef|.
    double geocentric_lat_rad = 0.0;
    double lon_rad = 0.0;      ///< atan2(n.y, n.x), for the longitude cull.
    double cos_el_cull = 0.0;  ///< cos(min_elevation - margin), for psi_max.
    double el_cull_rad = 0.0;  ///< min_elevation - margin.
  };

  /// One satellite in a latitude band, keyed by geocentric longitude so a
  /// station can binary-search its cap's longitude window.
  struct BandSat {
    double lon_rad = 0.0;
    int sat = 0;
  };

  /// Throws unless the leads and the down mask are empty or full size.
  void check_query(std::span<const double> forecast_lead_s,
                   std::span<const char> station_down) const;
  /// The all-pairs sweep (spatial index off, and the cross-validation
  /// reference): every station tests every allowed satellite.
  void sweep_brute(StepGeometry& out) const;
  /// The indexed sweep: latitude-band scatter + conservative cone cull,
  /// then the identical precise elevation test on survivors.  Records
  /// the funnel in `out.work`.
  void sweep_indexed(StepGeometry& out) const;

  const std::vector<groundseg::SatelliteConfig>* sats_;
  const std::vector<groundseg::GroundStation>* stations_;
  const weather::WeatherProvider* wx_;  ///< May be null (clear-sky planning).
  orbit::Sgp4Batch batch_;              ///< SoA propagator for the fleet.
  /// Per satellite, its radio's index among the fleet's distinct radios.
  std::vector<std::uint32_t> radio_of_;
  /// One link kernel per distinct radio, and its terms at every station:
  /// radio r's site for station g is sites_[r * num_stations + g].  Built
  /// once, at construction.
  std::vector<link::LinkKernel> kernels_;
  std::vector<link::LinkSite> sites_;
  std::vector<StationGeom> geom_;
  util::ThreadPool* pool_ = nullptr;              ///< Borrowed; may be null.
  bool spatial_index_ = true;
  /// Scratch reused across steps to avoid per-call allocation churn at
  /// constellation scale.  The engine's query methods are driver-thread
  /// only (they mutate this scratch under const); pool workers touch
  /// disjoint per-station slots.
  mutable StepGeometry scratch_geometry_;       ///< This query's geometry.
  mutable std::vector<double> radius_scratch_;  ///< Geocentric radii.
  /// Satellites per latitude band, sorted by (longitude, id).
  mutable std::vector<std::vector<BandSat>> band_scratch_;
  /// edges()' weather samples, one per visible pair of each up station,
  /// filled on the driver thread; station g's start at sample_offset_[g].
  mutable std::vector<weather::WeatherSample> sample_scratch_;
  mutable std::vector<std::size_t> sample_offset_;
  mutable std::vector<std::vector<ContactEdge>> edge_scratch_;
  /// contacts()' views of the scratch geometry's per-station lists.
  mutable std::vector<std::span<const VisibleSat>> list_scratch_;
  obs::Registry* metrics_ = nullptr;              ///< Borrowed; may be null.
  /// Cached registry handles (null when metrics_ is null).  Each is added
  /// to once per query, on the driver thread (DESIGN.md §10).
  obs::Counter* propagations_ = nullptr;
  obs::Counter* link_budgets_ = nullptr;
  obs::Counter* contact_edges_ = nullptr;
  obs::Counter* cull_candidates_ = nullptr;
  obs::Counter* cull_precise_ = nullptr;
};

}  // namespace dgs::core
