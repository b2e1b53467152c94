// End-to-end downlink budget (paper §3.2).
//
// Combines free-space path loss, ITU rain/cloud/gas attenuation, transmit
// EIRP and receive G/T into C/N0 -> Es/N0, then selects a DVB-S2 MODCOD to
// produce the *predicted* achievable data rate — the quantity the DGS
// scheduler uses as edge capacity, since receive-only stations cannot give
// live feedback.
#pragma once

#include <array>
#include <cstddef>

#include "src/link/antenna.h"
#include "src/link/dvbs2.h"

namespace dgs::link {

/// Satellite transmit chain.  Defaults approximate the Planet Labs
/// high-speed downlink radio the paper cites ([10]): X-band, per-channel
/// symbol rate sized so six channels peak near 1.6 Gbps.
struct RadioSpec {
  double frequency_hz = 8.2e9;      ///< X-band downlink centre.
  double eirp_dbw = 16.0;           ///< Per-channel EIRP.
  double symbol_rate_hz = 66.7e6;   ///< Per-channel symbol rate.
  int channels = 1;                 ///< Frequency/polarization channels used.
  double implementation_loss_db = 1.0;  ///< Modem implementation loss.
  double modcod_margin_db = 1.0;    ///< Link margin for rate selection.

  bool operator==(const RadioSpec&) const = default;
};

/// Environmental inputs to the prediction.
struct PathConditions {
  double range_km = 1000.0;          ///< Slant range.
  double elevation_rad = 0.5;        ///< Must be > 0 for a usable link.
  double site_latitude_rad = 0.0;    ///< For the rain-height climatology.
  double site_altitude_km = 0.0;     ///< Station altitude AMSL.
  double rain_rate_mm_h = 0.0;       ///< Forecast/actual rain rate.
  double cloud_liquid_kg_m2 = 0.0;   ///< Columnar cloud liquid water.
};

/// Full accounting of one budget evaluation.
struct LinkBudget {
  double fspl_db = 0.0;
  double rain_db = 0.0;
  double cloud_db = 0.0;
  double gas_db = 0.0;
  double total_atmos_db = 0.0;   ///< rain + cloud + gas.
  double g_over_t_db = 0.0;      ///< Including rain-induced noise rise.
  double cn0_dbhz = 0.0;
  double esn0_db = 0.0;
  const ModCod* modcod = nullptr;  ///< Null if the link cannot close.
  double data_rate_bps = 0.0;      ///< Across all channels; 0 if no link.

  bool closes() const { return modcod != nullptr; }
};

/// Evaluates the downlink budget.  Returns a budget with
/// modcod == nullptr (data_rate_bps == 0) when elevation <= 0 or no MODCOD
/// closes; throws std::invalid_argument on non-physical inputs
/// (negative range, rain, etc.).  The plain reference formula: hot
/// callers with a fixed radio and site use LinkKernel.
LinkBudget evaluate_link(const RadioSpec& radio, const ReceiveSystem& rx,
                         const PathConditions& path);

/// The receiver and site terms of a LinkKernel's budget at one station:
/// the dish gain at the radio's frequency, the receiver temperatures and
/// the rain layer above the site.  Built by LinkKernel::site().
struct LinkSite {
  double gain_dbi = 0.0;
  double clear_sky_temp_k = 0.0;
  double ground_spillover_k = 0.0;
  double lna_noise_temp_k = 0.0;
  double rain_layer_km = 0.0;  ///< P.839 rain height minus the altitude.
};

/// evaluate_link for one radio, with every term that depends only on the
/// radio computed once: the P.838 k and alpha, the P.840 K_l, the gaseous
/// zenith value, the symbol-rate dB, and per MODCOD its threshold
/// (required Es/N0 + margin) and rate.  A LinkSite carries the terms of
/// one receiver and site.  evaluate() runs evaluate_link's expressions in
/// the same order on the same values, so every field of its budget is
/// bit-identical to evaluate_link's (DESIGN.md §9).
class LinkKernel {
 public:
  /// Throws std::invalid_argument where evaluate_link would throw at the
  /// first edge needing the value: a frequency outside P.838 [1, 1000] GHz
  /// or P.840 (0, 200] GHz, channels < 1, a negative MODCOD margin, or a
  /// non-positive symbol rate.
  explicit LinkKernel(const RadioSpec& radio);

  /// The terms of receiver `rx` at a site; throws std::invalid_argument on
  /// a non-positive dish or an efficiency outside (0, 1].
  LinkSite site(const ReceiveSystem& rx, double site_latitude_rad,
                double site_altitude_km) const;

  /// evaluate_link(radio, rx, path) for a path at the site `site` was
  /// built for, with the same throws on the per-edge inputs.
  LinkBudget evaluate(const LinkSite& site, double range_km,
                      double elevation_rad, double rain_mm_h,
                      double cloud_liquid_kg_m2) const;

  /// select_modcod(esn0_db, radio.modcod_margin_db), found by counting
  /// the thresholds met: they are non-decreasing, so the ones met form
  /// the prefix select_modcod finds; a NaN meets none.
  const ModCod* select_modcod(double esn0_db) const {
    return modcod_[thresholds_met(esn0_db)];
  }

 private:
  std::size_t thresholds_met(double esn0_db) const {
    std::size_t met = 0;
    for (const double threshold : threshold_db_) {
      met += threshold <= esn0_db ? 1u : 0u;
    }
    return met;
  }
  double rain_db(const LinkSite& site, double rain_mm_h,
                 double elevation_rad, double sin_el5) const;

  double frequency_hz_;
  double eirp_dbw_;
  double implementation_loss_db_;
  double modcod_margin_db_;
  double rain_k_;          ///< P.838 k, circular polarization.
  double rain_alpha_;      ///< P.838 alpha, circular polarization.
  double cloud_kl_;        ///< P.840 K_l at 273.15 K.
  double gas_zenith_db_;
  double symbol_rate_db_;  ///< 10 log10(symbol rate).
  /// Required Es/N0 + margin, in dvbs2_modcods() order (non-decreasing).
  std::array<double, kNumModCods> threshold_db_;
  /// Indexed by the number of thresholds met: best_modcod_of_prefix(n)
  /// and its rate across all channels (nullptr and 0 at n == 0).
  std::array<const ModCod*, kNumModCods + 1> modcod_;
  std::array<double, kNumModCods + 1> rate_bps_;
};

}  // namespace dgs::link
