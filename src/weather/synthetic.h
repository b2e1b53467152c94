// Synthetic spatio-temporally correlated weather (Dark Sky substitute).
//
// The generator materializes a deterministic population of moving storm
// systems for a simulation horizon.  Each storm is a Gaussian rain cell with
// a wider cloud shield, drifting (westerlies poleward of 30 deg, easterlies
// in the tropics) over its lifetime.  Rain at a point is the superposition
// of nearby cells; clouds add a latitude-band background.  Forecasts degrade
// with lead time by perturbing the queried position/time with deterministic
// noise, which reproduces the operationally relevant failure mode: a
// mis-placed storm, not white noise on the rain rate.
//
// Every sample at one instant sees the same storm field, so the provider
// builds it once per distinct instant (drifted centres, envelopes, latitude
// bands) and rebuilds it in place when the instant changes (DESIGN.md §9).
// Like every provider, it is called from one thread at a time.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/weather/provider.h"

namespace dgs::weather {

struct SyntheticWeatherOptions {
  /// Expected number of simultaneously active storm systems world-wide.
  /// A few hundred matches the global population of significant
  /// precipitation systems.
  int mean_active_storms = 250;
  double mean_lifetime_hours = 12.0;
  double mean_radius_km = 250.0;
  /// Forecast position error growth [km per hour of lead time].
  double forecast_drift_km_per_hour = 30.0;
};

class SyntheticWeatherProvider final : public WeatherProvider {
 public:
  /// Generates storms covering [start, start + horizon_hours].  Queries
  /// outside the horizon see only background climatology.
  SyntheticWeatherProvider(std::uint64_t seed, const util::Epoch& start,
                           double horizon_hours,
                           const SyntheticWeatherOptions& opts = {});

  WeatherSample actual(double latitude_rad, double longitude_rad,
                       const util::Epoch& when) const override;

  WeatherSample forecast(double latitude_rad, double longitude_rad,
                         const util::Epoch& when,
                         double lead_seconds) const override;

  /// Number of storm systems generated (all lifetimes, whole horizon).
  std::size_t storm_count() const { return storms_.size(); }

 private:
  /// Test-only access: tests/test_weather.cpp checks the storm-field index
  /// against a scan of every storm.
  friend struct SyntheticWeatherPeer;

  struct Storm {
    double lat0_rad, lon0_rad;     ///< Centre at birth.
    double vel_east_rad_s;         ///< Zonal drift.
    double vel_north_rad_s;        ///< Meridional drift.
    double birth_s, death_s;       ///< Seconds relative to start_.
    double radius_km;              ///< Rain-core Gaussian sigma.
    double peak_rain_mm_h;
    double cloud_kg_m2;            ///< Peak cloud liquid of the shield.
  };

  /// The storm field at one instant.  Each cell holds one live storm's
  /// drifted centre and the per-instant constants of its distance and
  /// intensity terms; `bands[b]` lists, in ascending storm order, the
  /// cells whose 3.5-sigma shield can reach a query point whose latitude
  /// falls in band b.  Sampling walks one band: every storm it skips would
  /// have failed the distance test, and the rest are summed in storm order
  /// with the arithmetic of a scan over all storms, so samples are
  /// bit-identical to that scan (tests/test_weather.cpp keeps it as the
  /// oracle).
  struct Field {
    struct Cell {
      double c_lat, c_lon;   ///< Drifted centre.
      double cos_c_lat;      ///< cos(c_lat), hoisted out of the haversine.
      double c_lon_wrapped;  ///< c_lon reduced to [-pi, pi].
      double lon_reach_rad;  ///< Shield's longitude half-width (inf: pole).
      double reach_km;       ///< 3.5 cloud sigma: the shield's extent.
      double rain_reach_km;  ///< 2.5 rain sigma.
      double rain_denom;     ///< 2 rain_sigma^2.
      double cloud_denom;    ///< 2 cloud_sigma^2.
      double rain_amp;       ///< Peak rain x envelope.
      double cloud_amp;      ///< Peak cloud x envelope.
    };

    double t_s = std::numeric_limits<double>::quiet_NaN();
    std::vector<Cell> cells;
    std::vector<std::vector<std::uint32_t>> bands;

    void build(const std::vector<Storm>& storms, double t);
    WeatherSample sample(double lat, double lon) const;
  };

  WeatherSample sample_at(double lat, double lon, double t_s) const;

  util::Epoch start_;
  double horizon_s_;
  SyntheticWeatherOptions opts_;
  std::uint64_t seed_;
  std::vector<Storm> storms_;
  /// The field of the last instant sampled, rebuilt in place (keeping its
  /// buffers) when the instant changes.
  mutable Field field_;
};

}  // namespace dgs::weather
