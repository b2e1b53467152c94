// Weather data access interface.
//
// The paper drives its link predictions from the Dark Sky weather API (§4).
// That service is proprietary (and since discontinued), so DGS programs
// against this interface; the shipped implementation is a seedable synthetic
// provider with realistic spatial/temporal correlation (see synthetic.h and
// DESIGN.md for the substitution rationale).
#pragma once

#include "src/util/time.h"

namespace dgs::weather {

/// Point weather relevant to a slant-path link budget.
struct WeatherSample {
  double rain_rate_mm_h = 0.0;       ///< Surface rain rate.
  double cloud_liquid_kg_m2 = 0.0;   ///< Columnar cloud liquid water.
};

/// A provider is called from one thread at a time, like the query methods
/// of the core::VisibilityEngine that calls it, so an implementation may
/// keep unsynchronized state: SyntheticWeatherProvider keeps its per-instant
/// storm field and a per-hour forecast-direction memo.  Callers read a null
/// provider as clear sky everywhere.
class WeatherProvider {
 public:
  virtual ~WeatherProvider() = default;

  /// Ground-truth weather at a geodetic point (radians) and time.
  virtual WeatherSample actual(double latitude_rad, double longitude_rad,
                               const util::Epoch& when) const = 0;

  /// Forecast issued `lead_seconds` ahead of `when` (i.e. what a scheduler
  /// planning at `when - lead` believes `when` will look like).  The default
  /// is a perfect forecast; providers may add lead-dependent error.
  virtual WeatherSample forecast(double latitude_rad, double longitude_rad,
                                 const util::Epoch& when,
                                 double lead_seconds) const {
    (void)lead_seconds;
    return actual(latitude_rad, longitude_rad, when);
  }
};

}  // namespace dgs::weather
