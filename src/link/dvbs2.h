// DVB-S2 modulation & coding (ETSI EN 302 307).
//
// The paper's rate selection (§3.2) maps predicted SNR to a DVB-S2 MODCOD.
// We carry the standard's full normal-frame MODCOD table: modulation, LDPC
// code rate, spectral efficiency [bit/symbol], and the ideal required Es/N0
// [dB] for quasi-error-free operation (EN 302 307 table 13).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace dgs::link {

enum class Modulation { kQpsk, k8psk, k16apsk, k32apsk };

struct ModCod {
  std::string_view name;          ///< e.g. "16APSK 3/4".
  Modulation modulation;
  double code_rate;               ///< LDPC rate.
  double spectral_efficiency;     ///< Information bits per symbol.
  double required_esn0_db;        ///< Ideal AWGN Es/N0 for QEF.
};

/// The number of normal-frame MODCODs.
inline constexpr std::size_t kNumModCods = 28;

/// All 28 normal-frame MODCODs, sorted by ascending required Es/N0.
std::span<const ModCod> dvbs2_modcods();

/// The highest-throughput MODCOD among the `n` (<= kNumModCods) with the
/// lowest required Es/N0, the first on ties; nullptr when n == 0.  When
/// exactly those `n` close a link, this is select_modcod's answer.
const ModCod* best_modcod_of_prefix(std::size_t n);

/// Highest-throughput MODCOD whose required Es/N0 (plus `margin_db`)
/// is at or below `esn0_db`.  Returns nullptr if even the most robust
/// MODCOD cannot close the link.
const ModCod* select_modcod(double esn0_db, double margin_db = 1.0);

/// Information bit rate [bit/s] achieved by `mc` at `symbol_rate_hz`.
double bitrate_bps(const ModCod& mc, double symbol_rate_hz);

}  // namespace dgs::link
