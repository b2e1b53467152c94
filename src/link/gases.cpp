#include "src/link/gases.h"

#include <algorithm>
#include <cmath>

#include "src/util/angles.h"
#include "src/util/check.h"

namespace dgs::link {
namespace {

// (frequency [GHz], zenith attenuation [dB]) knots; representative values
// for a mid-latitude sea-level atmosphere away from the 22.2 GHz water
// vapour and 60 GHz oxygen lines.
constexpr double kFreqs[] = {1.0, 2.0, 4.0, 8.0, 12.0, 16.0,
                             20.0, 22.2, 25.0, 30.0, 40.0};
constexpr double kZenithDb[] = {0.035, 0.038, 0.042, 0.05, 0.08, 0.13,
                                0.35, 0.60, 0.30, 0.24, 0.40};
constexpr int kN = sizeof(kFreqs) / sizeof(kFreqs[0]);

}  // namespace

double gaseous_zenith_attenuation_db(double freq_ghz) {
  DGS_ENSURE_GT(freq_ghz, 0.0);
  if (freq_ghz <= kFreqs[0]) return kZenithDb[0];
  if (freq_ghz >= kFreqs[kN - 1]) return kZenithDb[kN - 1];
  for (int i = 1; i < kN; ++i) {
    if (freq_ghz <= kFreqs[i]) {
      const double t = (freq_ghz - kFreqs[i - 1]) / (kFreqs[i] - kFreqs[i - 1]);
      return kZenithDb[i - 1] * (1.0 - t) + kZenithDb[i] * t;
    }
  }
  return kZenithDb[kN - 1];
}

double gaseous_attenuation_db(double freq_ghz, double elevation_rad) {
  DGS_ENSURE_GT(elevation_rad, 0.0);
  const double zenith_db = gaseous_zenith_attenuation_db(freq_ghz);
  const double el = std::max(elevation_rad, util::deg2rad(5.0));
  return zenith_db / std::sin(el);
}

}  // namespace dgs::link
