// Link-model micro-benchmarks: the per-edge cost of the predictive link
// budget (paper §3.2) that runs for every visible satellite-station pair at
// every scheduling instant.
#include <benchmark/benchmark.h>

#include "src/link/budget.h"
#include "src/link/clouds.h"
#include "src/link/rain.h"
#include "src/util/angles.h"
#include "src/util/time.h"
#include "src/weather/synthetic.h"

namespace {

using dgs::util::deg2rad;

void BM_RainCoefficients(benchmark::State& state) {
  double f = 8.0;
  for (auto _ : state) {
    f = f >= 30.0 ? 8.0 : f + 0.1;
    benchmark::DoNotOptimize(dgs::link::rain_coefficients(
        f, dgs::link::Polarization::kCircular));
  }
}
BENCHMARK(BM_RainCoefficients);

void BM_RainSlantAttenuation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::link::rain_attenuation_db(
        8.2, 25.0, deg2rad(30.0), deg2rad(45.0), 0.0));
  }
}
BENCHMARK(BM_RainSlantAttenuation);

void BM_CloudAttenuation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dgs::link::cloud_attenuation_db(8.2, 1.0, deg2rad(30.0)));
  }
}
BENCHMARK(BM_CloudAttenuation);

/// The path both budget benchmarks evaluate: a rainy, cloudy mid-latitude
/// contact at 27 deg.
dgs::link::PathConditions budget_path() {
  dgs::link::PathConditions path;
  path.range_km = 1200.0;
  path.elevation_rad = deg2rad(27.0);
  path.site_latitude_rad = deg2rad(45.0);
  path.rain_rate_mm_h = 4.0;
  path.cloud_liquid_kg_m2 = 0.8;
  return path;
}

/// The reference formula, as cold callers (and perfbench's
/// link.budget_ns_per_call) run it.
void BM_FullLinkBudget(benchmark::State& state) {
  const dgs::link::PathConditions path = budget_path();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgs::link::evaluate_link(
        dgs::link::RadioSpec{}, dgs::link::ReceiveSystem{}, path));
  }
}
BENCHMARK(BM_FullLinkBudget);

/// The same budget through the kernel the VisibilityEngine runs per edge.
void BM_LinkKernel(benchmark::State& state) {
  const dgs::link::PathConditions path = budget_path();
  const dgs::link::LinkKernel kernel(dgs::link::RadioSpec{});
  const dgs::link::LinkSite site = kernel.site(
      dgs::link::ReceiveSystem{}, path.site_latitude_rad,
      path.site_altitude_km);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel.evaluate(site, path.range_km, path.elevation_rad,
                        path.rain_rate_mm_h, path.cloud_liquid_kg_m2));
  }
}
BENCHMARK(BM_LinkKernel);

void BM_WeatherQuery(benchmark::State& state) {
  const dgs::util::Epoch start(dgs::util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const dgs::weather::SyntheticWeatherProvider wx(7, start, 24.0);
  double lat = -1.0;
  for (auto _ : state) {
    lat = lat >= 1.0 ? -1.0 : lat + 0.01;
    benchmark::DoNotOptimize(
        wx.actual(lat, 0.3, start.plus_seconds(7200.0)));
  }
}
BENCHMARK(BM_WeatherQuery);

void BM_WeatherForecastQuery(benchmark::State& state) {
  const dgs::util::Epoch start(dgs::util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const dgs::weather::SyntheticWeatherProvider wx(7, start, 24.0);
  double lat = -1.0;
  for (auto _ : state) {
    lat = lat >= 1.0 ? -1.0 : lat + 0.01;
    benchmark::DoNotOptimize(
        wx.forecast(lat, 0.3, start.plus_seconds(7200.0), 3600.0));
  }
}
BENCHMARK(BM_WeatherForecastQuery);

}  // namespace

BENCHMARK_MAIN();
