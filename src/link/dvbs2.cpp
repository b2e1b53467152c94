#include "src/link/dvbs2.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "src/util/check.h"

namespace dgs::link {
namespace {

// EN 302 307 table 13 (normal FECFRAME, ideal demodulator).  Sorted by
// required Es/N0; spectral efficiencies include LDPC+BCH overhead.
constexpr ModCod kModCods[kNumModCods] = {
    {"QPSK 1/4", Modulation::kQpsk, 1.0 / 4, 0.490243, -2.35},
    {"QPSK 1/3", Modulation::kQpsk, 1.0 / 3, 0.656448, -1.24},
    {"QPSK 2/5", Modulation::kQpsk, 2.0 / 5, 0.789412, -0.30},
    {"QPSK 1/2", Modulation::kQpsk, 1.0 / 2, 0.988858, 1.00},
    {"QPSK 3/5", Modulation::kQpsk, 3.0 / 5, 1.188304, 2.23},
    {"QPSK 2/3", Modulation::kQpsk, 2.0 / 3, 1.322253, 3.10},
    {"QPSK 3/4", Modulation::kQpsk, 3.0 / 4, 1.487473, 4.03},
    {"QPSK 4/5", Modulation::kQpsk, 4.0 / 5, 1.587196, 4.68},
    {"QPSK 5/6", Modulation::kQpsk, 5.0 / 6, 1.654663, 5.18},
    {"8PSK 3/5", Modulation::k8psk, 3.0 / 5, 1.779991, 5.50},
    {"QPSK 8/9", Modulation::kQpsk, 8.0 / 9, 1.766451, 6.20},
    {"QPSK 9/10", Modulation::kQpsk, 9.0 / 10, 1.788612, 6.42},
    {"8PSK 2/3", Modulation::k8psk, 2.0 / 3, 1.980636, 6.62},
    {"8PSK 3/4", Modulation::k8psk, 3.0 / 4, 2.228124, 7.91},
    {"16APSK 2/3", Modulation::k16apsk, 2.0 / 3, 2.637201, 8.97},
    {"8PSK 5/6", Modulation::k8psk, 5.0 / 6, 2.478562, 9.35},
    {"16APSK 3/4", Modulation::k16apsk, 3.0 / 4, 2.966728, 10.21},
    {"8PSK 8/9", Modulation::k8psk, 8.0 / 9, 2.646012, 10.69},
    {"8PSK 9/10", Modulation::k8psk, 9.0 / 10, 2.679207, 10.98},
    {"16APSK 4/5", Modulation::k16apsk, 4.0 / 5, 3.165623, 11.03},
    {"16APSK 5/6", Modulation::k16apsk, 5.0 / 6, 3.300184, 11.61},
    {"32APSK 3/4", Modulation::k32apsk, 3.0 / 4, 3.703295, 12.73},
    {"16APSK 8/9", Modulation::k16apsk, 8.0 / 9, 3.523143, 12.89},
    {"16APSK 9/10", Modulation::k16apsk, 9.0 / 10, 3.567342, 13.13},
    {"32APSK 4/5", Modulation::k32apsk, 4.0 / 5, 3.951571, 13.64},
    {"32APSK 5/6", Modulation::k32apsk, 5.0 / 6, 4.119540, 14.28},
    {"32APSK 8/9", Modulation::k32apsk, 8.0 / 9, 4.397854, 15.69},
    {"32APSK 9/10", Modulation::k32apsk, 9.0 / 10, 4.453027, 16.05},
};

}  // namespace

std::span<const ModCod> dvbs2_modcods() {
  // One-time table sanity audit: EN 302 307 ordering (ascending required
  // Es/N0) and physically meaningful rates.  Index-based MODCOD round-trips
  // (dvbs2_framing) and select_modcod both lean on these properties.
  [[maybe_unused]] static const bool audited = [] {
    for (std::size_t i = 0; i < std::size(kModCods); ++i) {
      const ModCod& mc = kModCods[i];
      DGS_CHECK(mc.code_rate > 0.0 && mc.code_rate < 1.0,
                mc.name << ": code_rate=" << mc.code_rate);
      DGS_CHECK(mc.spectral_efficiency > 0.0,
                mc.name << ": spectral_efficiency="
                        << mc.spectral_efficiency);
      if (i > 0) {
        DGS_CHECK_GE(mc.required_esn0_db, kModCods[i - 1].required_esn0_db);
      }
    }
    return true;
  }();
  return kModCods;
}

const ModCod* best_modcod_of_prefix(std::size_t n) {
  DGS_ENSURE_LE(n, kNumModCods);
  // The table is not strictly efficiency-sorted (some 8PSK entries need
  // more SNR than lower-order MODCODs with higher efficiency), so the best
  // of a prefix is precomputed once, with the same first-wins tie-breaking
  // as a linear max scan.
  static const std::array<const ModCod*, kNumModCods + 1> kPrefixBest = [] {
    std::array<const ModCod*, kNumModCods + 1> best{};
    const ModCod* run = nullptr;
    for (std::size_t i = 0; i < kNumModCods; ++i) {
      if (run == nullptr ||
          kModCods[i].spectral_efficiency > run->spectral_efficiency) {
        run = &kModCods[i];
      }
      best[i + 1] = run;
    }
    return best;
  }();
  return kPrefixBest[n];
}

const ModCod* select_modcod(double esn0_db, double margin_db) {
  DGS_ENSURE_GE(margin_db, 0.0);
  // The table is Es/N0-sorted, so the feasible entries form a prefix
  // (float addition of the same margin preserves the ordering), found in
  // O(log n): this runs for every link budget a cold caller evaluates.
  const ModCod* end_feasible = std::partition_point(
      std::begin(kModCods), std::end(kModCods), [&](const ModCod& mc) {
        return mc.required_esn0_db + margin_db <= esn0_db;
      });
  return best_modcod_of_prefix(
      static_cast<std::size_t>(end_feasible - std::begin(kModCods)));
}

double bitrate_bps(const ModCod& mc, double symbol_rate_hz) {
  DGS_ENSURE_GT(symbol_rate_hz, 0.0);
  return mc.spectral_efficiency * symbol_rate_hz;
}

}  // namespace dgs::link
