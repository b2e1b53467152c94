#include "src/core/visibility.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "src/obs/trace.h"
#include "src/orbit/frames.h"
#include "src/util/check.h"

namespace dgs::core {

namespace {

// Spatial-index constants (DESIGN.md §14).  Bands partition geocentric
// latitude [-pi/2, pi/2]; the cull margin absorbs the deviation between a
// station's geodetic normal (the elevation reference) and its geocentric
// direction (the cone-test axis), which is at most ~0.0034 rad on the
// WGS-84 ellipsoid.
constexpr int kNumBands = 64;
constexpr double kCullMarginRad = 0.004;
constexpr double kPi = 3.14159265358979323846;

int latitude_band(double geocentric_lat_rad) {
  const double t = (geocentric_lat_rad + kPi / 2.0) / kPi;
  const int band = static_cast<int>(t * kNumBands);
  return std::clamp(band, 0, kNumBands - 1);
}

/// Maximum geocentric separation (station direction vs satellite
/// direction) at which a satellite of radius `r_km` can still sit at
/// elevation >= `el_rad` above a station of radius `station_radius_km`:
/// psi_max = acos((R / r) cos el) - el, exact for point geometry.
double max_central_angle(double station_radius_km, double r_km,
                         double el_rad, double cos_el) {
  const double x =
      std::clamp(station_radius_km / r_km * cos_el, -1.0, 1.0);
  return std::acos(x) - el_rad;
}

orbit::Sgp4Batch make_batch(
    const std::vector<groundseg::SatelliteConfig>& sats) {
  std::vector<orbit::Tle> tles;
  tles.reserve(sats.size());
  for (const groundseg::SatelliteConfig& sc : sats) tles.push_back(sc.tle);
  return orbit::Sgp4Batch(tles);
}

}  // namespace

VisibilityEngine::VisibilityEngine(
    const std::vector<groundseg::SatelliteConfig>& sats,
    const std::vector<groundseg::GroundStation>& stations,
    const weather::WeatherProvider* forecast_weather)
    : sats_(&sats), stations_(&stations), wx_(forecast_weather),
      batch_(make_batch(sats)) {
  geom_.reserve(stations.size());
  for (const groundseg::GroundStation& gs : stations) {
    StationGeom g;
    g.ecef = orbit::geodetic_to_ecef(gs.location);
    const double clat = std::cos(gs.location.latitude_rad);
    g.up = {clat * std::cos(gs.location.longitude_rad),
            clat * std::sin(gs.location.longitude_rad),
            std::sin(gs.location.latitude_rad)};
    g.radius_km = g.ecef.norm();
    g.n = g.ecef * (1.0 / g.radius_km);
    g.geocentric_lat_rad = std::asin(g.n.z);
    g.lon_rad = std::atan2(g.n.y, g.n.x);
    g.el_cull_rad = gs.min_elevation_rad - kCullMarginRad;
    g.cos_el_cull = std::cos(g.el_cull_rad);
    geom_.push_back(g);
  }

  // One kernel per distinct radio: fleets share a handful of radios.
  radio_of_.reserve(sats.size());
  std::vector<const link::RadioSpec*> radios;
  for (const groundseg::SatelliteConfig& sc : sats) {
    std::size_t r = 0;
    while (r < radios.size() && !(*radios[r] == sc.radio)) ++r;
    if (r == radios.size()) {
      radios.push_back(&sc.radio);
      kernels_.emplace_back(sc.radio);
    }
    radio_of_.push_back(static_cast<std::uint32_t>(r));
  }
  sites_.reserve(kernels_.size() * stations.size());
  for (const link::LinkKernel& kernel : kernels_) {
    for (const groundseg::GroundStation& gs : stations) {
      // Beamforming stations split aperture power across their beams; the
      // conservative full-split penalty scales the aperture efficiency
      // down by the beam count.
      link::ReceiveSystem rx = gs.receiver;
      if (gs.beam_count > 1) rx.aperture_efficiency /= gs.beam_count;
      sites_.push_back(kernel.site(rx, gs.location.latitude_rad,
                                   gs.location.altitude_km));
    }
  }
}

link::LinkBudget VisibilityEngine::link_budget(
    int sat, int station, double range_km, double elevation_rad,
    const weather::WeatherSample& wx) const {
  const std::uint32_t r = radio_of_[static_cast<std::size_t>(sat)];
  const link::LinkSite& site =
      sites_[r * stations_->size() + static_cast<std::size_t>(station)];
  return kernels_[r].evaluate(site, range_km, elevation_rad,
                              wx.rain_rate_mm_h, wx.cloud_liquid_kg_m2);
}

void VisibilityEngine::set_metrics(obs::Registry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    propagations_ = nullptr;
    link_budgets_ = nullptr;
    contact_edges_ = nullptr;
    cull_candidates_ = nullptr;
    cull_precise_ = nullptr;
    return;
  }
  propagations_ = registry->counter(
      "dgs_vis_propagations_total",
      "Satellite propagations (SGP4 + TEME->ECEF) computed");
  link_budgets_ = registry->counter(
      "dgs_vis_link_budgets_total",
      "Predictive link budgets evaluated over visible pairs");
  contact_edges_ = registry->counter(
      "dgs_vis_contact_edges_total",
      "Contact-graph edges produced (budget closed)");
  cull_candidates_ = registry->counter(
      "dgs_vis_cull_candidates_total",
      "Sat x station pairs examined by the spatial index (band survivors)");
  cull_precise_ = registry->counter(
      "dgs_vis_cull_precise_total",
      "Pairs passing the cone cull and given the precise elevation test");
}

util::Vec3 VisibilityEngine::satellite_ecef(int sat,
                                            const util::Epoch& when) const {
  const orbit::TemeState st = batch_.propagate_one(sat, when);
  return orbit::teme_to_ecef(st.position_km, when);
}

bool VisibilityEngine::visible(int sat, int station,
                               const util::Epoch& when) const {
  const util::Vec3 sat_ecef = satellite_ecef(sat, when);
  const StationGeom& g = geom_.at(station);
  const util::Vec3 rho = sat_ecef - g.ecef;
  const double el = std::asin(rho.dot(g.up) / rho.norm());
  return el >= (*stations_)[station].min_elevation_rad;
}

void VisibilityEngine::sweep_brute(StepGeometry& out) const {
  const auto num_stations = static_cast<std::int64_t>(stations_->size());
  // Sweep each station's elevation mask over all satellites.  Stations
  // are independent; each writes only its own visibility list, in
  // ascending satellite order — exactly the serial sweep's order.
  const auto sweep = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t g = begin; g < end; ++g) {
      const groundseg::GroundStation& gs =
          (*stations_)[static_cast<std::size_t>(g)];
      const StationGeom& geom = geom_[static_cast<std::size_t>(g)];
      std::vector<VisibleSat>& vis =
          out.per_station[static_cast<std::size_t>(g)];
      vis.clear();
      for (std::size_t s = 0; s < out.sat_ecef.size(); ++s) {
        if (!gs.constraints.allows(s)) continue;
        const util::Vec3 rho = out.sat_ecef[s] - geom.ecef;
        const double range = rho.norm();
        const double el = std::asin(rho.dot(geom.up) / range);
        if (el < gs.min_elevation_rad) continue;
        vis.push_back(VisibleSat{static_cast<int>(s), el, range});
      }
    }
  };
  util::parallel_for(pool_, num_stations, sweep);
}

void VisibilityEngine::sweep_indexed(StepGeometry& out) const {
  const std::size_t num_sats = out.sat_ecef.size();
  const auto num_stations = static_cast<std::int64_t>(stations_->size());
  if (num_stations == 0) return;

  // Per-satellite geocentric radius and the step-wide conservative radius
  // bound (psi_max grows with r, so using r_max for every station only
  // widens its cone).  Computed serially so r_max is trivially
  // thread-count independent.
  radius_scratch_.resize(num_sats);
  double r_max = 0.0;
  for (std::size_t s = 0; s < num_sats; ++s) {
    radius_scratch_[s] = out.sat_ecef[s].norm();
    r_max = std::max(r_max, radius_scratch_[s]);
  }

  // Scatter each satellite into the single band holding its geocentric
  // latitude, then sort every band by (longitude, id) so stations can
  // binary-search the longitude window of their visibility cap.  A
  // station's cap (geocentric radius psi_max around its direction n)
  // bounds both coordinates: |lat_sat - lat_station| <= psi_max, and,
  // when the cap stays clear of the poles, |lon_sat - lon_station| <=
  // asin(sin psi_max / cos lat_station) — the spherical-cap bounding box.
  // Band lists keep their capacity across steps.
  if (band_scratch_.empty()) band_scratch_.resize(kNumBands);
  for (std::vector<BandSat>& band : band_scratch_) band.clear();
  for (std::size_t s = 0; s < num_sats; ++s) {
    const util::Vec3& p = out.sat_ecef[s];
    const double lat = std::asin(p.z / radius_scratch_[s]);
    const double lon = std::atan2(p.y, p.x);
    band_scratch_[static_cast<std::size_t>(latitude_band(lat))].push_back(
        BandSat{lon, static_cast<int>(s)});
  }
  for (std::vector<BandSat>& band : band_scratch_) {
    std::sort(band.begin(), band.end(),
              [](const BandSat& a, const BandSat& b) {
                if (a.lon_rad != b.lon_rad) return a.lon_rad < b.lon_rad;
                return a.sat < b.sat;
              });
  }

  // Per-station cone threshold at the conservative radius, then the
  // identical precise elevation test on survivors.  The cull only ever
  // removes pairs the precise test would reject (DESIGN.md §14), so the
  // lists match the brute-force sweep bit for bit.
  std::atomic<std::int64_t> total_candidates{0};
  std::atomic<std::int64_t> total_precise{0};
  const auto sweep = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t candidates = 0;
    std::int64_t precise = 0;
    for (std::int64_t g = begin; g < end; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const groundseg::GroundStation& gs = (*stations_)[gi];
      const StationGeom& geom = geom_[gi];
      std::vector<VisibleSat>& vis = out.per_station[gi];
      vis.clear();
      const double psi_max = max_central_angle(
          geom.radius_km, r_max, geom.el_cull_rad, geom.cos_el_cull);
      const double cos_psi_max = std::cos(psi_max);
      const int lo = latitude_band(geom.geocentric_lat_rad - psi_max);
      const int hi = latitude_band(geom.geocentric_lat_rad + psi_max);
      // Longitude half-width of the cap's bounding box; the whole circle
      // when the cap reaches a pole.  The fp slack in lat/lon round-trips
      // is absorbed by the kCullMarginRad already inside psi_max.
      double lon_hw = kPi;
      if (std::abs(geom.geocentric_lat_rad) + psi_max < kPi / 2.0) {
        lon_hw = std::asin(std::min(
            1.0, std::sin(psi_max) / std::cos(geom.geocentric_lat_rad)));
      }
      const auto scan = [&](const std::vector<BandSat>& cand,
                            double lon_lo, double lon_hi) {
        auto first = std::lower_bound(
            cand.begin(), cand.end(), lon_lo,
            [](const BandSat& e, double v) { return e.lon_rad < v; });
        for (; first != cand.end() && first->lon_rad <= lon_hi; ++first) {
          ++candidates;
          const auto s = static_cast<std::size_t>(first->sat);
          if (!gs.constraints.allows(s)) continue;
          // Cone cull: geocentric separation vs the widened visibility
          // cone.  cos(psi) = n . sat_ecef / r, compared multiplied out.
          if (geom.n.dot(out.sat_ecef[s]) <
              cos_psi_max * radius_scratch_[s]) {
            continue;
          }
          ++precise;
          const util::Vec3 rho = out.sat_ecef[s] - geom.ecef;
          const double range = rho.norm();
          const double el = std::asin(rho.dot(geom.up) / range);
          if (el < gs.min_elevation_rad) continue;
          vis.push_back(VisibleSat{first->sat, el, range});
        }
      };
      for (int b = lo; b <= hi; ++b) {
        const std::vector<BandSat>& cand =
            band_scratch_[static_cast<std::size_t>(b)];
        if (lon_hw >= kPi) {
          scan(cand, -kPi, kPi);
          continue;
        }
        const double w_lo = geom.lon_rad - lon_hw;
        const double w_hi = geom.lon_rad + lon_hw;
        if (w_lo < -kPi) {  // window wraps the date line westward
          scan(cand, w_lo + 2.0 * kPi, kPi);
          scan(cand, -kPi, w_hi);
        } else if (w_hi > kPi) {  // wraps eastward
          scan(cand, w_lo, kPi);
          scan(cand, -kPi, w_hi - 2.0 * kPi);
        } else {
          scan(cand, w_lo, w_hi);
        }
      }
      // Survivors arrive grouped by band; restore the brute-force
      // (ascending satellite) order.  Per-satellite values are order-
      // independent, so this is a pure permutation.
      std::sort(vis.begin(), vis.end(),
                [](const VisibleSat& a, const VisibleSat& b) {
                  return a.sat < b.sat;
                });
    }
    // Whole-chunk integer adds: exact in any order.
    total_candidates.fetch_add(candidates, std::memory_order_relaxed);
    total_precise.fetch_add(precise, std::memory_order_relaxed);
  };
  util::parallel_for(pool_, num_stations, sweep);
  out.work.cull_candidates = total_candidates.load();
  out.work.cull_precise = total_precise.load();
}

const StepGeometry& VisibilityEngine::geometry(
    const util::Epoch& when) const {
  DGS_TRACE_SPAN("vis.geometry");
  StepGeometry& out = scratch_geometry_;
  out.sat_ecef.resize(static_cast<std::size_t>(batch_.size()));
  out.per_station.resize(stations_->size());
  out.work = GeometryWork{};

  // Propagate every satellite once for this instant: batched SGP4 in SoA
  // layout, one shared GMST rotation, chunk-tiled over the pool.
  // Per-index writes keep the result thread-count independent.
  batch_.positions_ecef(when, out.sat_ecef, pool_);
  out.work.propagations = batch_.size();

  if (spatial_index_) {
    sweep_indexed(out);
  } else {
    sweep_brute(out);
  }
  count_geometry(out.work);
  return out;
}

void VisibilityEngine::count_geometry(const GeometryWork& work) const {
  // Integer adds from the driver thread: exact however they are split.
  if (propagations_ != nullptr && work.propagations > 0) {
    propagations_->inc(static_cast<double>(work.propagations));
  }
  if (cull_candidates_ != nullptr && work.cull_candidates > 0) {
    cull_candidates_->inc(static_cast<double>(work.cull_candidates));
  }
  if (cull_precise_ != nullptr && work.cull_precise > 0) {
    cull_precise_->inc(static_cast<double>(work.cull_precise));
  }
}

void VisibilityEngine::check_query(std::span<const double> forecast_lead_s,
                                   std::span<const char> station_down) const {
  DGS_ENSURE(forecast_lead_s.empty() ||
                 forecast_lead_s.size() == sats_->size(),
             "forecast_lead_s size=" << forecast_lead_s.size()
                                     << " sats=" << sats_->size());
  DGS_ENSURE(station_down.empty() || station_down.size() == stations_->size(),
             "station_down size=" << station_down.size() << " stations="
                                  << stations_->size());
}

std::vector<ContactEdge> VisibilityEngine::contacts(
    const util::Epoch& when, std::span<const double> forecast_lead_s,
    std::span<const char> station_down) const {
  check_query(forecast_lead_s, station_down);
  DGS_TRACE_SPAN("vis.contacts");
  const StepGeometry& geo = geometry(when);
  list_scratch_.assign(geo.per_station.begin(), geo.per_station.end());
  return edges(when, list_scratch_, forecast_lead_s, station_down);
}

std::vector<ContactEdge> VisibilityEngine::edges(
    const util::Epoch& when,
    std::span<const std::span<const VisibleSat>> visible,
    std::span<const double> forecast_lead_s,
    std::span<const char> station_down) const {
  check_query(forecast_lead_s, station_down);
  DGS_ENSURE_EQ(visible.size(), stations_->size());

  // Weather sampling and link budgets depend on the forecast lead and the
  // outage mask, so they are evaluated per call, in two passes.
  //
  // Pass 1, on this (the driver) thread: one sample per visible pair of
  // every up station, in station order, so the provider is only ever
  // called from one thread (provider.h).  Station g's samples start at
  // sample_offset_[g].  The station's last (lead, sample) is memoized:
  // satellites sharing a lead share the forecast, as every satellite does
  // within a look-ahead horizon step.  Leads <= 0 all mean the actual
  // weather, keyed as 0.  A NaN lead never matches, so it still reaches
  // forecast() and throws.  Without a provider every sample is clear sky.
  sample_scratch_.clear();
  sample_offset_.resize(stations_->size());
  for (std::size_t g = 0; g < stations_->size(); ++g) {
    sample_offset_[g] = sample_scratch_.size();
    if (!station_down.empty() && station_down[g]) continue;
    const groundseg::GroundStation& gs = (*stations_)[g];
    double memo_lead = std::numeric_limits<double>::quiet_NaN();
    weather::WeatherSample wx;
    for (const VisibleSat& v : visible[g]) {
      if (wx_ != nullptr) {
        const auto s = static_cast<std::size_t>(v.sat);
        const double lead = forecast_lead_s.empty() ? 0.0 : forecast_lead_s[s];
        const double key = lead <= 0.0 ? 0.0 : lead;
        if (!(key == memo_lead)) {
          if (lead <= 0.0) {
            wx = wx_->actual(gs.location.latitude_rad,
                             gs.location.longitude_rad, when);
          } else {
            wx = wx_->forecast(gs.location.latitude_rad,
                               gs.location.longitude_rad, when, lead);
          }
          memo_lead = key;
        }
      }
      sample_scratch_.push_back(wx);
    }
  }

  // Pass 2, on the pool: link budgets over the samples.  Each station
  // produces its own edge list (a scratch slot that keeps its capacity
  // across calls); concatenating them in station order reproduces the
  // serial station-major, satellite-minor order.
  edge_scratch_.resize(stations_->size());
  for (std::vector<ContactEdge>& v : edge_scratch_) v.clear();
  std::vector<std::vector<ContactEdge>>& per_station = edge_scratch_;
  const auto budgets = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t gi = begin; gi < end; ++gi) {
      const auto g = static_cast<std::size_t>(gi);
      if (!station_down.empty() && station_down[g]) continue;
      const weather::WeatherSample* wx =
          sample_scratch_.data() + sample_offset_[g];
      for (const VisibleSat& v : visible[g]) {
        const link::LinkBudget b =
            link_budget(v.sat, static_cast<int>(g), v.range_km,
                        v.elevation_rad, *wx++);
        if (!b.closes()) continue;

        ContactEdge e;
        e.sat = v.sat;
        e.station = static_cast<int>(g);
        e.elevation_rad = v.elevation_rad;
        e.range_km = v.range_km;
        e.predicted_rate_bps = b.data_rate_bps;
        e.modcod = b.modcod;
        per_station[g].push_back(e);
      }
    }
  };
  util::parallel_for(pool_, static_cast<std::int64_t>(stations_->size()),
                     budgets);

  // Counted here, on the driver thread, once the pool has joined
  // (DESIGN.md §10): pass 2 evaluates one budget per pass-1 sample.
  std::size_t total = 0;
  for (const std::vector<ContactEdge>& v : per_station) total += v.size();
  if (link_budgets_ != nullptr) {
    link_budgets_->inc(static_cast<double>(sample_scratch_.size()));
  }
  if (contact_edges_ != nullptr) {
    contact_edges_->inc(static_cast<double>(total));
  }
  std::vector<ContactEdge> edges;
  edges.reserve(total);
  for (const std::vector<ContactEdge>& v : per_station) {
    edges.insert(edges.end(), v.begin(), v.end());
  }
  return edges;
}

}  // namespace dgs::core
