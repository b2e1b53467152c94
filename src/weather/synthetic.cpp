#include "src/weather/synthetic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/angles.h"
#include "src/util/check.h"
#include "src/util/constants.h"
#include "src/util/rng.h"
#include "src/weather/climatology.h"

namespace dgs::weather {
namespace {

constexpr double kEarthRadiusKm = 6371.0;

// Storm-field index (DESIGN.md §9): query latitudes in 2-degree bands.  The
// margin widens every conservative bound far beyond the few-ulp rounding of
// the distance test it stands in for.
constexpr int kFieldBands = 90;
constexpr double kFieldMarginRad = 1e-6;

/// Band of a latitude (not NaN); beyond either pole clamps to the end band.
/// Monotone, so a storm listed in the bands of both ends of its latitude
/// reach is listed in the band of every latitude between.
int field_band(double lat) {
  const double t = (lat + util::kPi / 2.0) / (util::kPi / kFieldBands);
  if (!(t > 0.0)) return 0;
  if (t >= kFieldBands) return kFieldBands - 1;
  return static_cast<int>(t);
}

/// The shield's angular radius (3.5 cloud sigma), widened by the margin.
double shield_reach_rad(double radius_km) {
  return 3.5 * radius_km / kEarthRadiusKm + kFieldMarginRad;
}

/// std::remainder(x, 2 pi), skipping the call where it returns x itself:
/// for |x| <= pi the nearest multiple of 2 pi is 0 (a tie rounds to the
/// even 0), so the two agree bit for bit there, signed zeros included.
double wrap_lon(double x) {
  return std::fabs(x) <= util::kPi ? x : std::remainder(x, util::kTwoPi);
}

/// SplitMix64 — used for deterministic forecast-error angles.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

SyntheticWeatherProvider::SyntheticWeatherProvider(
    std::uint64_t seed, const util::Epoch& start, double horizon_hours,
    const SyntheticWeatherOptions& opts)
    : start_(start), horizon_s_(horizon_hours * 3600.0), opts_(opts),
      seed_(seed) {
  DGS_ENSURE_GT(horizon_hours, 0.0);
  DGS_ENSURE_GE(opts.mean_active_storms, 0);
  util::Rng rng(seed);

  // Storms whose lifetime overlaps the horizon: steady-state population times
  // (horizon + lifetime) / lifetime.
  const double life_s = opts_.mean_lifetime_hours * 3600.0;
  const int total = static_cast<int>(
      opts_.mean_active_storms * (horizon_s_ + life_s) / life_s);
  storms_.reserve(total);

  for (int i = 0; i < total; ++i) {
    Storm s;
    // Rejection-sample a latitude from climatological storm density,
    // area-weighted by cos(lat).
    for (;;) {
      const double lat = rng.uniform(-util::kPi / 2.0, util::kPi / 2.0);
      const double w = storm_density_weight(lat) * std::cos(lat);
      if (rng.uniform() < w) {
        s.lat0_rad = lat;
        break;
      }
    }
    s.lon0_rad = rng.uniform(-util::kPi, util::kPi);

    // Zonal drift: easterlies inside 30 deg, westerlies poleward of it.
    const double lat_deg = util::rad2deg(std::fabs(s.lat0_rad));
    const double zonal_m_s = (lat_deg < 30.0 ? -1.0 : 1.0) *
                             rng.uniform(5.0, 25.0);
    const double meridional_m_s = rng.normal(0.0, 3.0);
    const double coslat = std::max(0.2, std::cos(s.lat0_rad));
    s.vel_east_rad_s = zonal_m_s / (kEarthRadiusKm * 1000.0 * coslat);
    s.vel_north_rad_s = meridional_m_s / (kEarthRadiusKm * 1000.0);

    const double lifetime = rng.exponential(1.0 / life_s);
    s.birth_s = rng.uniform(-lifetime, horizon_s_);
    s.death_s = s.birth_s + lifetime;

    s.radius_km = std::max(40.0, rng.normal(opts_.mean_radius_km,
                                            opts_.mean_radius_km * 0.4));
    const double typical = typical_peak_rain_mm_h(s.lat0_rad);
    s.peak_rain_mm_h = std::min(120.0, rng.exponential(1.0 / typical));
    s.cloud_kg_m2 = rng.uniform(0.4, 1.6);
    s.sin_reach = std::sin(shield_reach_rad(s.radius_km));
    storms_.push_back(s);
  }
}

void SyntheticWeatherProvider::Field::build(const std::vector<Storm>& storms,
                                            double t) {
  t_s = t;
  cells.clear();
  bands.resize(kFieldBands);
  for (std::vector<Entry>& band : bands) band.clear();
  for (const Storm& s : storms) {
    if (t < s.birth_s || t > s.death_s) continue;
    const double age = t - s.birth_s;
    Cell c;
    c.c_lat = s.lat0_rad + s.vel_north_rad_s * age;
    c.c_lon = s.lon0_rad + s.vel_east_rad_s * age;
    c.cos_c_lat = std::cos(c.c_lat);

    // The precipitating core is much smaller than the cloud shield: rain
    // covers only a few percent of the globe at any instant while cloud
    // cover is a large fraction.
    const double cloud_sigma = s.radius_km;
    const double rain_sigma = s.radius_km / 4.0;
    c.reach_km = 3.5 * cloud_sigma;
    c.rain_reach_km = 2.5 * rain_sigma;
    c.rain_denom = 2.0 * rain_sigma * rain_sigma;
    c.cloud_denom = 2.0 * cloud_sigma * cloud_sigma;

    // Storm intensity ramps up and decays over its lifetime (sine envelope).
    const double life = s.death_s - s.birth_s;
    const double envelope = std::sin(util::kPi * age / life);
    c.rain_amp = s.peak_rain_mm_h * envelope;
    c.cloud_amp = s.cloud_kg_m2 * envelope;

    // The shield's angular radius, widened by the margin, bounds both the
    // latitude bands it reaches and, when it holds no pole, its longitude
    // extent: the spherical cap's bounding box.
    const double reach_rad = shield_reach_rad(s.radius_km);
    Entry e;
    e.c_lon_wrapped = wrap_lon(c.c_lon);
    e.lon_reach_rad = std::numeric_limits<double>::infinity();
    if (std::fabs(c.c_lat) + reach_rad < util::kPi / 2.0) {
      e.lon_reach_rad =
          std::asin(std::min(1.0, s.sin_reach / c.cos_c_lat)) +
          kFieldMarginRad;
    }
    // A NaN centre (a NaN instant) is visited from every band, as a scan
    // over all storms would visit it.
    int lo = 0;
    int hi = kFieldBands - 1;
    if (!std::isnan(c.c_lat)) {
      lo = field_band(c.c_lat - reach_rad);
      hi = field_band(c.c_lat + reach_rad);
    }
    e.index = static_cast<std::uint32_t>(cells.size());
    for (int b = lo; b <= hi; ++b) {
      bands[static_cast<std::size_t>(b)].push_back(e);
    }
    cells.push_back(c);
  }
}

WeatherSample SyntheticWeatherProvider::Field::sample(double lat,
                                                      double lon) const {
  WeatherSample out;
  out.cloud_liquid_kg_m2 = background_cloud_kg_m2(lat);

  // cos(lat) of the query point, computed when the first cell reaches the
  // haversine (most samples in clear air never need it).
  double cos_lat = 0.0;
  bool have_cos_lat = false;
  // The distance test and its sums.  The band walk below runs the
  // longitude test before it; that test only rejects, so running it first
  // changes neither the cells kept nor their order.
  const auto visit = [&](const Cell& c) {
    // Cheap meridional prefilter: |dlat| alone already exceeds the shield.
    if (std::fabs(lat - c.c_lat) * kEarthRadiusKm > c.reach_km) return;
    if (!have_cos_lat) {
      cos_lat = std::cos(lat);
      have_cos_lat = true;
    }

    // util::great_circle_angle(lat, lon, c_lat, c_lon) with both cosines
    // hoisted: the same operations in the same order.
    const double sdlat = std::sin((c.c_lat - lat) / 2.0);
    const double sdlon = std::sin((c.c_lon - lon) / 2.0);
    const double h = sdlat * sdlat + cos_lat * c.cos_c_lat * sdlon * sdlon;
    const double d_km =
        2.0 * std::asin(std::min(1.0, std::sqrt(h))) * kEarthRadiusKm;
    if (d_km > c.reach_km) return;

    if (d_km < c.rain_reach_km) {
      const double rain = c.rain_amp * std::exp(-d_km * d_km / c.rain_denom);
      out.rain_rate_mm_h = std::max(out.rain_rate_mm_h, rain);
    }
    out.cloud_liquid_kg_m2 +=
        c.cloud_amp * std::exp(-d_km * d_km / c.cloud_denom);
  };
  if (std::isnan(lat)) {
    // No band holds a NaN latitude; no storm would fail its tests either.
    for (const Cell& c : cells) visit(c);
  } else {
    // The longitude window, read from the band's own entries: a cell
    // outside it is rejected without touching its Cell.  The window only
    // holds for a point on the sphere's chart; a forecast-displaced
    // latitude beyond a pole skips it.
    const bool lon_window = std::fabs(lat) <= util::kPi / 2.0;
    const double lon_wrapped = wrap_lon(lon);
    for (const Entry& e : bands[static_cast<std::size_t>(field_band(lat))]) {
      if (lon_window) {
        double dlon = std::fabs(lon_wrapped - e.c_lon_wrapped);
        if (dlon > util::kPi) dlon = util::kTwoPi - dlon;
        if (dlon > e.lon_reach_rad) continue;
      }
      visit(cells[e.index]);
    }
  }
  out.cloud_liquid_kg_m2 = std::min(out.cloud_liquid_kg_m2, 4.0);
  return out;
}

WeatherSample SyntheticWeatherProvider::sample_at(double lat, double lon,
                                                  double t_s) const {
  if (!(field_.t_s == t_s)) field_.build(storms_, t_s);
  return field_.sample(lat, lon);
}

WeatherSample SyntheticWeatherProvider::actual(double latitude_rad,
                                               double longitude_rad,
                                               const util::Epoch& when) const {
  return sample_at(latitude_rad, longitude_rad, when.seconds_since(start_));
}

WeatherSample SyntheticWeatherProvider::forecast(double latitude_rad,
                                                 double longitude_rad,
                                                 const util::Epoch& when,
                                                 double lead_seconds) const {
  DGS_ENSURE_GE(lead_seconds, 0.0);
  // A forecast error is modelled as evaluating the true field at a point
  // displaced by an error that grows with lead time.  The displacement
  // direction is a deterministic function of (seed, forecast valid-hour),
  // mimicking a coherent model bias rather than white noise.
  // Every forecast in one valid hour shares the direction, so its sin and
  // cos are memoized on the exact key: a hit returns the very bits a
  // recomputation would.
  const double lead_h = lead_seconds / 3600.0;
  const double err_km = opts_.forecast_drift_km_per_hour * lead_h;
  const std::uint64_t key =
      mix64(seed_ ^ static_cast<std::uint64_t>(when.jd() * 24.0));
  if (!direction_.valid || direction_.key != key) {
    const double angle =
        static_cast<double>(key % 62832) / 10000.0;  // [0, 2*pi)
    direction_.valid = true;
    direction_.key = key;
    direction_.sin_angle = std::sin(angle);
    direction_.cos_angle = std::cos(angle);
  }
  const double dlat = err_km * direction_.sin_angle / kEarthRadiusKm;
  const double coslat = std::max(0.2, std::cos(latitude_rad));
  const double dlon =
      err_km * direction_.cos_angle / (kEarthRadiusKm * coslat);
  return sample_at(latitude_rad + dlat, longitude_rad + dlon,
                   when.seconds_since(start_));
}

}  // namespace dgs::weather
