#include "src/link/antenna.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/constants.h"

namespace dgs::link {

double dish_gain_dbi(double diameter_m, double freq_hz, double efficiency) {
  DGS_ENSURE_GT(diameter_m, 0.0);
  DGS_ENSURE_GT(freq_hz, 0.0);
  DGS_ENSURE(efficiency > 0.0 && efficiency <= 1.0,
             "efficiency=" << efficiency << " outside (0,1]");
  const double x = util::kPi * diameter_m * freq_hz / util::kSpeedOfLight;
  return 10.0 * std::log10(efficiency * x * x);
}

double system_noise_temp_k(const ReceiveSystem& rx, double atmos_loss_db) {
  DGS_ENSURE_GE(atmos_loss_db, 0.0);
  constexpr double kMediumTempK = 275.0;
  const double transmissivity = std::pow(10.0, -atmos_loss_db / 10.0);
  // Clear-sky contribution is attenuated by the medium; the medium emits.
  const double sky = rx.clear_sky_temp_k * transmissivity +
                     kMediumTempK * (1.0 - transmissivity);
  return sky + rx.ground_spillover_k + rx.lna_noise_temp_k;
}

double g_over_t_db(const ReceiveSystem& rx, double freq_hz,
                   double atmos_loss_db) {
  const double gain =
      dish_gain_dbi(rx.dish_diameter_m, freq_hz, rx.aperture_efficiency);
  const double t = system_noise_temp_k(rx, atmos_loss_db);
  return gain - 10.0 * std::log10(t);
}

}  // namespace dgs::link
