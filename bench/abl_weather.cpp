// E11 — ablation: weather-aware vs weather-blind scheduling (paper §3.2's
// motivation for the predictive link-quality model).
//
// Three schedulers run against the same actual weather:
//   perfect   — forecasts equal truth (couple_forecast_to_plan_upload off)
//   coupled   — forecasts age with plan staleness (the deployable system)
//   blind     — schedules assuming clear sky everywhere
// A receive-only station cannot ask for a MODCOD change mid-pass, so a
// mis-predicted link wastes the whole slot; the blind scheduler pays that
// price.  Run at X band (the paper's primary) and Ku band (more
// weather-sensitive) to show the effect scale with frequency.
#include <cstdio>

#include "bench/common.h"

namespace {

void run_band(const char* band_name, double freq_hz,
              const dgs::bench::Setup& setup,
              const dgs::weather::SyntheticWeatherProvider& wx) {
  using namespace dgs;
  using namespace dgs::bench;

  auto sats = setup.sats;
  for (auto& s : sats) s.radio.frequency_hz = freq_hz;

  struct Config {
    const char* label;
    bool aware;
    bool coupled;
  };
  const Config configs[] = {
      {"perfect forecast", true, false},
      {"coupled (plan-staleness)", true, true},
      {"weather-blind", false, false},
  };

  std::printf("\n%s (%.1f GHz):\n", band_name, freq_hz / 1e9);
  std::printf("  %-26s %10s %9s %12s %11s %10s\n", "scheduler", "assigned",
              "failed", "fail rate", "lat med", "delivered");
  for (const Config& c : configs) {
    core::SimulationOptions opts = day_sim();
    opts.weather_aware = c.aware;
    opts.couple_forecast_to_plan_upload = c.coupled;
    const core::SimulationResult r =
        core::Session(sats, setup.dgs, &wx, opts).run_to_end();
    std::printf("  %-26s %10lld %9lld %11.2f%% %7.1f min %7.1f TB\n",
                c.label, static_cast<long long>(r.assignments),
                static_cast<long long>(r.failed_assignments),
                100.0 * static_cast<double>(r.failed_assignments) /
                    static_cast<double>(
                        std::max<std::int64_t>(1, r.assignments)),
                r.latency_minutes.median(),
                r.total_delivered_bytes / 1e12);
  }
}

}  // namespace

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E11: weather-aware vs weather-blind scheduling "
              "(24 h, DGS 173) ===\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  run_band("X band", 8.2e9, setup, wx);
  run_band("Ku band", 14.0e9, setup, wx);

  std::printf("\n  expected shape: blind scheduling wastes slots on links "
              "that cannot close (failed slots), increasingly so at higher "
              "frequency; the coupled scheduler sits between blind and "
              "perfect because plans age between TX contacts.\n");
  return 0;
}
