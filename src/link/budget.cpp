#include "src/link/budget.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/link/clouds.h"
#include "src/link/fspl.h"
#include "src/link/gases.h"
#include "src/link/rain.h"
#include "src/util/angles.h"
#include "src/util/check.h"
#include "src/util/constants.h"

namespace dgs::link {

LinkBudget evaluate_link(const RadioSpec& radio, const ReceiveSystem& rx,
                         const PathConditions& path) {
  DGS_ENSURE_GE(radio.channels, 1);
  DGS_ENSURE_GT(path.range_km, 0.0);
  DGS_ENSURE(std::isfinite(path.range_km) &&
                 std::isfinite(path.elevation_rad) &&
                 std::isfinite(path.rain_rate_mm_h) &&
                 std::isfinite(path.cloud_liquid_kg_m2),
             "non-finite path conditions: range=" << path.range_km
                 << " el=" << path.elevation_rad << " rain="
                 << path.rain_rate_mm_h << " clw="
                 << path.cloud_liquid_kg_m2);

  LinkBudget b;
  if (path.elevation_rad <= 0.0) return b;  // Below the horizon: no link.

  const double f_ghz = radio.frequency_hz / 1e9;
  b.fspl_db = fspl_db(path.range_km, radio.frequency_hz);
  b.rain_db = rain_attenuation_db(f_ghz, path.rain_rate_mm_h,
                                  path.elevation_rad, path.site_latitude_rad,
                                  path.site_altitude_km);
  b.cloud_db = cloud_attenuation_db(f_ghz, path.cloud_liquid_kg_m2,
                                    path.elevation_rad);
  b.gas_db = gaseous_attenuation_db(f_ghz, path.elevation_rad);
  b.total_atmos_db = b.rain_db + b.cloud_db + b.gas_db;

  b.g_over_t_db = g_over_t_db(rx, radio.frequency_hz, b.total_atmos_db);

  // C/N0 [dBHz] = EIRP - FSPL - A_atmos + G/T - 10log10(k) - L_impl.
  b.cn0_dbhz = radio.eirp_dbw - b.fspl_db - b.total_atmos_db + b.g_over_t_db -
               util::kBoltzmannDb - radio.implementation_loss_db;
  b.esn0_db = b.cn0_dbhz - 10.0 * std::log10(radio.symbol_rate_hz);

  // Every dB term must be finite and every attenuation non-negative: a NaN
  // here would silently poison edge weights and the whole schedule.
  DGS_DCHECK(std::isfinite(b.fspl_db) && b.fspl_db > 0.0,
             "fspl_db=" << b.fspl_db);
  DGS_DCHECK(std::isfinite(b.rain_db) && b.rain_db >= 0.0,
             "rain_db=" << b.rain_db);
  DGS_DCHECK(std::isfinite(b.cloud_db) && b.cloud_db >= 0.0,
             "cloud_db=" << b.cloud_db);
  DGS_DCHECK(std::isfinite(b.gas_db) && b.gas_db >= 0.0,
             "gas_db=" << b.gas_db);
  DGS_DCHECK(std::isfinite(b.g_over_t_db), "g_over_t_db=" << b.g_over_t_db);
  DGS_DCHECK(std::isfinite(b.cn0_dbhz), "cn0_dbhz=" << b.cn0_dbhz);
  DGS_DCHECK(std::isfinite(b.esn0_db), "esn0_db=" << b.esn0_db);

  b.modcod = select_modcod(b.esn0_db, radio.modcod_margin_db);
  if (b.modcod != nullptr) {
    b.data_rate_bps =
        bitrate_bps(*b.modcod, radio.symbol_rate_hz) * radio.channels;
    // The selected MODCOD honours the margin, and the resulting rate is a
    // real positive bit rate.
    DGS_DCHECK_LE(b.modcod->required_esn0_db + radio.modcod_margin_db,
                  b.esn0_db);
    DGS_DCHECK(std::isfinite(b.data_rate_bps) && b.data_rate_bps > 0.0,
               "data_rate_bps=" << b.data_rate_bps);
  }
  return b;
}

LinkKernel::LinkKernel(const RadioSpec& radio)
    : frequency_hz_(radio.frequency_hz),
      eirp_dbw_(radio.eirp_dbw),
      implementation_loss_db_(radio.implementation_loss_db),
      modcod_margin_db_(radio.modcod_margin_db) {
  DGS_ENSURE_GE(radio.channels, 1);
  DGS_ENSURE_GE(radio.modcod_margin_db, 0.0);
  // Each value comes from the function evaluate_link calls, on the same
  // arguments, so it carries the same bits and the same checks.
  const double f_ghz = radio.frequency_hz / 1e9;
  const RainCoefficients rc = rain_coefficients(f_ghz, Polarization::kCircular);
  rain_k_ = rc.k;
  rain_alpha_ = rc.alpha;
  cloud_kl_ = cloud_specific_attenuation_coeff(f_ghz);
  gas_zenith_db_ = gaseous_zenith_attenuation_db(f_ghz);
  symbol_rate_db_ = 10.0 * std::log10(radio.symbol_rate_hz);

  const std::span<const ModCod> table = dvbs2_modcods();
  for (std::size_t i = 0; i < kNumModCods; ++i) {
    threshold_db_[i] = table[i].required_esn0_db + radio.modcod_margin_db;
  }
  modcod_[0] = nullptr;
  rate_bps_[0] = 0.0;
  for (std::size_t n = 1; n <= kNumModCods; ++n) {
    modcod_[n] = best_modcod_of_prefix(n);
    rate_bps_[n] = bitrate_bps(*modcod_[n], radio.symbol_rate_hz) *
                   radio.channels;
  }
}

LinkSite LinkKernel::site(const ReceiveSystem& rx, double site_latitude_rad,
                          double site_altitude_km) const {
  LinkSite s;
  s.gain_dbi = dish_gain_dbi(rx.dish_diameter_m, frequency_hz_,
                             rx.aperture_efficiency);
  s.clear_sky_temp_k = rx.clear_sky_temp_k;
  s.ground_spillover_k = rx.ground_spillover_k;
  s.lna_noise_temp_k = rx.lna_noise_temp_k;
  s.rain_layer_km = rain_height_km(site_latitude_rad) - site_altitude_km;
  return s;
}

double LinkKernel::rain_db(const LinkSite& site, double rain_mm_h,
                           double elevation_rad, double sin_el5) const {
  // rain_attenuation_db with the site's rain layer and P.838 coefficients
  // taken from the tables; sin(el) is sin(max(el, 5 deg)) at or above 5 deg.
  if (rain_mm_h <= 0.0) return 0.0;
  const double dh = site.rain_layer_km;
  if (dh <= 0.0) return 0.0;  // Site above the rain layer.

  const double el = elevation_rad;
  double slant_km;
  if (el >= util::deg2rad(5.0)) {
    slant_km = dh / sin_el5;
  } else {
    const double re = 8500.0;  // effective Earth radius [km]
    const double sin_el = std::sin(el);
    slant_km = 2.0 * dh / (std::sqrt(sin_el * sin_el + 2.0 * dh / re) +
                           sin_el);
  }
  const double gamma = rain_k_ * std::pow(rain_mm_h, rain_alpha_);
  const double lg = slant_km * std::cos(el);
  const double l0 = 35.0 * std::exp(-0.015 * std::min(rain_mm_h, 100.0));
  const double reduction = 1.0 / (1.0 + lg / l0);
  return gamma * slant_km * reduction;
}

LinkBudget LinkKernel::evaluate(const LinkSite& site, double range_km,
                                double elevation_rad, double rain_mm_h,
                                double cloud_liquid_kg_m2) const {
  DGS_ENSURE_GT(range_km, 0.0);
  DGS_ENSURE(std::isfinite(range_km) && std::isfinite(elevation_rad) &&
                 std::isfinite(rain_mm_h) &&
                 std::isfinite(cloud_liquid_kg_m2),
             "non-finite path conditions: range=" << range_km
                 << " el=" << elevation_rad << " rain=" << rain_mm_h
                 << " clw=" << cloud_liquid_kg_m2);

  LinkBudget b;
  if (elevation_rad <= 0.0) return b;  // Below the horizon: no link.
  DGS_ENSURE_GE(cloud_liquid_kg_m2, 0.0);

  // One sine serves the cloud and gas cosecants (both clamp at 5 deg) and
  // the rain slant path at or above 5 deg.
  const double sin_el5 =
      std::sin(std::max(elevation_rad, util::deg2rad(5.0)));
  b.fspl_db = fspl_db(range_km, frequency_hz_);
  b.rain_db = rain_db(site, rain_mm_h, elevation_rad, sin_el5);
  b.cloud_db = cloud_liquid_kg_m2 == 0.0
                   ? 0.0
                   : cloud_liquid_kg_m2 * cloud_kl_ / sin_el5;
  b.gas_db = gas_zenith_db_ / sin_el5;
  b.total_atmos_db = b.rain_db + b.cloud_db + b.gas_db;

  // g_over_t_db with the dish gain from the site.
  DGS_ENSURE_GE(b.total_atmos_db, 0.0);
  constexpr double kMediumTempK = 275.0;
  const double transmissivity = std::pow(10.0, -b.total_atmos_db / 10.0);
  const double sky = site.clear_sky_temp_k * transmissivity +
                     kMediumTempK * (1.0 - transmissivity);
  const double t = sky + site.ground_spillover_k + site.lna_noise_temp_k;
  b.g_over_t_db = site.gain_dbi - 10.0 * std::log10(t);

  b.cn0_dbhz = eirp_dbw_ - b.fspl_db - b.total_atmos_db + b.g_over_t_db -
               util::kBoltzmannDb - implementation_loss_db_;
  b.esn0_db = b.cn0_dbhz - symbol_rate_db_;

  DGS_DCHECK(std::isfinite(b.fspl_db) && b.fspl_db > 0.0,
             "fspl_db=" << b.fspl_db);
  DGS_DCHECK(std::isfinite(b.rain_db) && b.rain_db >= 0.0,
             "rain_db=" << b.rain_db);
  DGS_DCHECK(std::isfinite(b.cloud_db) && b.cloud_db >= 0.0,
             "cloud_db=" << b.cloud_db);
  DGS_DCHECK(std::isfinite(b.gas_db) && b.gas_db >= 0.0,
             "gas_db=" << b.gas_db);
  DGS_DCHECK(std::isfinite(b.g_over_t_db), "g_over_t_db=" << b.g_over_t_db);
  DGS_DCHECK(std::isfinite(b.cn0_dbhz), "cn0_dbhz=" << b.cn0_dbhz);
  DGS_DCHECK(std::isfinite(b.esn0_db), "esn0_db=" << b.esn0_db);

  const std::size_t met = thresholds_met(b.esn0_db);
  b.modcod = modcod_[met];
  b.data_rate_bps = rate_bps_[met];
  if (b.modcod != nullptr) {
    DGS_DCHECK_LE(b.modcod->required_esn0_db + modcod_margin_db_, b.esn0_db);
    DGS_DCHECK(std::isfinite(b.data_rate_bps) && b.data_rate_bps > 0.0,
               "data_rate_bps=" << b.data_rate_bps);
  }
  return b;
}
}  // namespace dgs::link
