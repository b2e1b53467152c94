// The link kernel against its reference: link::LinkKernel and the
// VisibilityEngine's per-(radio, station) kernels must give evaluate_link's
// budget bit for bit, throw where it throws, and pick select_modcod's
// MODCOD at every threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/core/visibility.h"
#include "src/link/budget.h"
#include "src/util/angles.h"
#include "src/util/rng.h"
#include "src/weather/synthetic.h"

namespace dgs::link {
namespace {

using util::deg2rad;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every field equal with ==, the MODCOD by pointer.
void expect_same_budget(const LinkBudget& a, const LinkBudget& b) {
  EXPECT_EQ(a.fspl_db, b.fspl_db);
  EXPECT_EQ(a.rain_db, b.rain_db);
  EXPECT_EQ(a.cloud_db, b.cloud_db);
  EXPECT_EQ(a.gas_db, b.gas_db);
  EXPECT_EQ(a.total_atmos_db, b.total_atmos_db);
  EXPECT_EQ(a.g_over_t_db, b.g_over_t_db);
  EXPECT_EQ(a.cn0_dbhz, b.cn0_dbhz);
  EXPECT_EQ(a.esn0_db, b.esn0_db);
  EXPECT_EQ(a.modcod, b.modcod);
  EXPECT_EQ(a.data_rate_bps, b.data_rate_bps);
}

/// Radios the oracle runs: the default X-band node, a rain-sensitive
/// Ku-band radio with two channels and no margin, and a six-channel
/// Ka-band radio with a wide margin.
std::vector<RadioSpec> radios() {
  RadioSpec ku;
  ku.frequency_hz = 14.0e9;
  ku.channels = 2;
  ku.modcod_margin_db = 0.0;
  RadioSpec ka;
  ka.frequency_hz = 26.5e9;
  ka.symbol_rate_hz = 100e6;
  ka.channels = 6;
  ka.eirp_dbw = 20.0;
  ka.modcod_margin_db = 2.5;
  return {RadioSpec{}, ku, ka};
}

/// Receivers: the default 1 m node, a 4-beam split of it, and a larger
/// dish with a colder LNA.
std::vector<ReceiveSystem> receivers() {
  ReceiveSystem split;
  split.aperture_efficiency /= 4;
  ReceiveSystem big;
  big.dish_diameter_m = 3.7;
  big.lna_noise_temp_k = 50.0;
  return {ReceiveSystem{}, split, big};
}

/// What the seeded paths covered, so the test fails if a branch of the
/// formula went unexercised.
struct Coverage {
  int rainy = 0;
  int grazing = 0;
  int above_rain_layer = 0;
  int zero_cloud = 0;
  int below_horizon = 0;
  int closes = 0;
  int fails_to_close = 0;
};

TEST(LinkKernel, MatchesEvaluateLinkOnSeededPaths) {
  util::Rng rng(20201104);
  Coverage seen;
  for (const RadioSpec& radio : radios()) {
    const LinkKernel kernel(radio);
    for (const ReceiveSystem& rx : receivers()) {
      for (int s = 0; s < 24; ++s) {
        PathConditions path;
        path.site_latitude_rad = deg2rad(rng.uniform(-85.0, 85.0));
        // Up to 5.5 km: sites at high latitude or altitude sit above the
        // P.839 rain layer.
        path.site_altitude_km = rng.chance(0.25) ? rng.uniform(0.0, 5.5)
                                                 : rng.uniform(0.0, 0.5);
        const LinkSite site = kernel.site(rx, path.site_latitude_rad,
                                          path.site_altitude_km);
        for (int i = 0; i < 400; ++i) {
          path.range_km = rng.uniform(450.0, 3200.0);
          const double u = rng.uniform();
          if (u < 0.05) {
            path.elevation_rad = deg2rad(rng.uniform(-5.0, 0.0));
          } else if (u < 0.25) {
            path.elevation_rad = deg2rad(rng.uniform(0.0, 5.0));
          } else {
            path.elevation_rad = deg2rad(rng.uniform(5.0, 90.0));
          }
          path.rain_rate_mm_h =
              rng.chance(0.5) ? 0.0 : rng.exponential(1.0 / 8.0);
          if (rng.chance(0.05)) path.rain_rate_mm_h = rng.uniform(100.0, 150.0);
          path.cloud_liquid_kg_m2 = rng.chance(0.4) ? 0.0 : rng.uniform(0.0, 3.0);

          const LinkBudget want = evaluate_link(radio, rx, path);
          const LinkBudget got =
              kernel.evaluate(site, path.range_km, path.elevation_rad,
                              path.rain_rate_mm_h, path.cloud_liquid_kg_m2);
          SCOPED_TRACE(::testing::Message()
                       << "f=" << radio.frequency_hz << " range="
                       << path.range_km << " el=" << path.elevation_rad
                       << " rain=" << path.rain_rate_mm_h
                       << " clw=" << path.cloud_liquid_kg_m2);
          expect_same_budget(got, want);
          if (::testing::Test::HasFailure()) return;

          if (path.elevation_rad <= 0.0) {
            ++seen.below_horizon;
            continue;
          }
          if (want.rain_db > 0.0) ++seen.rainy;
          if (path.rain_rate_mm_h > 0.0 && want.rain_db == 0.0) {
            ++seen.above_rain_layer;
          }
          if (path.elevation_rad < deg2rad(5.0)) ++seen.grazing;
          if (path.cloud_liquid_kg_m2 == 0.0) ++seen.zero_cloud;
          if (want.closes()) {
            ++seen.closes;
          } else {
            ++seen.fails_to_close;
          }
        }
      }
    }
  }
  EXPECT_GT(seen.rainy, 1000);
  EXPECT_GT(seen.grazing, 1000);
  EXPECT_GT(seen.above_rain_layer, 100);
  EXPECT_GT(seen.zero_cloud, 1000);
  EXPECT_GT(seen.below_horizon, 100);
  EXPECT_GT(seen.closes, 1000);
  EXPECT_GT(seen.fails_to_close, 100);
}

TEST(LinkKernel, SiteAboveTheRainLayerSeesNoRain) {
  // 70 deg latitude puts the P.839 rain height at 1.475 km.
  PathConditions path;
  path.range_km = 1200.0;
  path.elevation_rad = deg2rad(3.0);
  path.site_latitude_rad = deg2rad(70.0);
  path.site_altitude_km = 1.5;
  path.rain_rate_mm_h = 40.0;
  path.cloud_liquid_kg_m2 = 0.0;
  const LinkKernel kernel{RadioSpec{}};
  const LinkSite site = kernel.site(ReceiveSystem{}, path.site_latitude_rad,
                                    path.site_altitude_km);
  EXPECT_LT(site.rain_layer_km, 0.0);
  const LinkBudget got = kernel.evaluate(
      site, path.range_km, path.elevation_rad, path.rain_rate_mm_h, 0.0);
  EXPECT_EQ(got.rain_db, 0.0);
  EXPECT_EQ(got.cloud_db, 0.0);
  expect_same_budget(got, evaluate_link(RadioSpec{}, ReceiveSystem{}, path));
}

TEST(LinkKernel, ThrowsWhereEvaluateLinkThrows) {
  const LinkKernel kernel{RadioSpec{}};
  const LinkSite site = kernel.site(ReceiveSystem{}, 0.7, 0.0);
  struct Bad {
    double range_km, elevation_rad, rain_mm_h, cloud_kg_m2;
  };
  const Bad cases[] = {
      {kNan, 0.5, 1.0, 0.1},  {kInf, 0.5, 1.0, 0.1},
      {1e3, kNan, 1.0, 0.1},  {1e3, -kInf, 1.0, 0.1},
      {1e3, 0.5, kNan, 0.1},  {1e3, 0.5, kInf, 0.1},
      {1e3, 0.5, 1.0, kNan},  {1e3, 0.5, 1.0, kInf},
      {0.0, 0.5, 1.0, 0.1},   {-5.0, 0.5, 1.0, 0.1},
      {1e3, 0.5, 1.0, -0.01},
  };
  for (const Bad& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.range_km << " " << c.elevation_rad
                                      << " " << c.rain_mm_h << " "
                                      << c.cloud_kg_m2);
    PathConditions path;
    path.range_km = c.range_km;
    path.elevation_rad = c.elevation_rad;
    path.site_latitude_rad = 0.7;
    path.rain_rate_mm_h = c.rain_mm_h;
    path.cloud_liquid_kg_m2 = c.cloud_kg_m2;
    EXPECT_THROW(evaluate_link(RadioSpec{}, ReceiveSystem{}, path),
                 std::invalid_argument);
    EXPECT_THROW(kernel.evaluate(site, c.range_km, c.elevation_rad,
                                 c.rain_mm_h, c.cloud_kg_m2),
                 std::invalid_argument);
  }
  // Below the horizon neither looks at the cloud, and negative rain means
  // none: both return rather than throw.
  PathConditions path;
  path.range_km = 1e3;
  path.elevation_rad = -0.1;
  path.site_latitude_rad = 0.7;
  path.cloud_liquid_kg_m2 = -1.0;
  expect_same_budget(kernel.evaluate(site, 1e3, -0.1, 0.0, -1.0),
                     evaluate_link(RadioSpec{}, ReceiveSystem{}, path));
  path.elevation_rad = 0.4;
  path.rain_rate_mm_h = -3.0;
  path.cloud_liquid_kg_m2 = 0.2;
  expect_same_budget(kernel.evaluate(site, 1e3, 0.4, -3.0, 0.2),
                     evaluate_link(RadioSpec{}, ReceiveSystem{}, path));
}

TEST(LinkKernel, PicksSelectModCodsEntryAtEveryThreshold) {
  for (const double margin : {0.0, 1.0}) {
    RadioSpec radio;
    radio.modcod_margin_db = margin;
    const LinkKernel kernel(radio);
    std::vector<double> probes = {kNan, kInf, -kInf, 0.0, -100.0, 100.0};
    for (const ModCod& mc : dvbs2_modcods()) {
      const double threshold = mc.required_esn0_db + margin;
      probes.push_back(threshold);
      probes.push_back(std::nextafter(threshold, -kInf));
      probes.push_back(std::nextafter(threshold, kInf));
    }
    int closed = 0;
    for (const double esn0 : probes) {
      SCOPED_TRACE(::testing::Message() << "margin " << margin << " esn0 "
                                        << esn0);
      const ModCod* want = select_modcod(esn0, margin);
      EXPECT_EQ(kernel.select_modcod(esn0), want);
      closed += want != nullptr ? 1 : 0;
    }
    // Every threshold met exactly picks a MODCOD; the ulp below the
    // lowest, NaN, -inf, and -100 dB pick none.
    EXPECT_EQ(closed, static_cast<int>(probes.size()) - 4);
  }
}

TEST(LinkKernel, RadiosAndReceiversOutsideTheModelThrowAtBuild) {
  std::vector<RadioSpec> bad(6);
  bad[0].frequency_hz = 0.5e9;    // below P.838's 1 GHz
  bad[1].frequency_hz = 1001e9;   // above P.838's 1000 GHz
  bad[2].frequency_hz = 250e9;    // inside P.838, above P.840's 200 GHz
  bad[3].channels = 0;
  bad[4].modcod_margin_db = -0.5;
  bad[5].symbol_rate_hz = 0.0;
  for (const RadioSpec& radio : bad) {
    EXPECT_THROW(LinkKernel{radio}, std::invalid_argument);
  }
  const LinkKernel kernel{RadioSpec{}};
  ReceiveSystem no_dish;
  no_dish.dish_diameter_m = 0.0;
  EXPECT_THROW(kernel.site(no_dish, 0.0, 0.0), std::invalid_argument);
  ReceiveSystem overfull;
  overfull.aperture_efficiency = 1.5;
  EXPECT_THROW(kernel.site(overfull, 0.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dgs::link

namespace dgs::core {
namespace {

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

groundseg::NetworkOptions mixed_net() {
  groundseg::NetworkOptions opts;
  opts.num_stations = 30;
  opts.num_satellites = 20;
  opts.seed = 29;
  return opts;
}

/// The reference budget of a pair: evaluate_link with the station's
/// receiver, its efficiency split across its beams.
link::LinkBudget reference_budget(const groundseg::SatelliteConfig& sat,
                                  const groundseg::GroundStation& gs,
                                  const VisibleSat& v,
                                  const weather::WeatherSample& wx) {
  link::PathConditions path;
  path.range_km = v.range_km;
  path.elevation_rad = v.elevation_rad;
  path.site_latitude_rad = gs.location.latitude_rad;
  path.site_altitude_km = gs.location.altitude_km;
  path.rain_rate_mm_h = wx.rain_rate_mm_h;
  path.cloud_liquid_kg_m2 = wx.cloud_liquid_kg_m2;
  link::ReceiveSystem rx = gs.receiver;
  if (gs.beam_count > 1) rx.aperture_efficiency /= gs.beam_count;
  return link::evaluate_link(sat.radio, rx, path);
}

// Two radios in one engine (as in examples/weather_rerouting), beam-split
// stations and storm weather: every visible pair's budget, and every edge
// contacts() returns, match evaluate_link bit for bit.
TEST(LinkKernelEngine, TwoRadiosAndBeamSplitsMatchTheReference) {
  auto sats = groundseg::generate_constellation(mixed_net(), kEpoch);
  auto stations = groundseg::generate_dgs_stations(mixed_net());
  for (std::size_t s = 0; s < sats.size(); s += 2) {
    sats[s].radio.frequency_hz = 14.0e9;
    sats[s].radio.channels = 3;
  }
  for (std::size_t g = 0; g < stations.size(); g += 3) {
    stations[g].beam_count = 1 + static_cast<int>(g % 4);
  }
  const weather::SyntheticWeatherProvider wx(31, kEpoch, 6.0);
  const VisibilityEngine engine(sats, stations, &wx);

  int pairs = 0;
  int rainy = 0;
  for (int m = 0; m < 360; m += 6) {
    const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
    // Copy the lists: contacts() reuses the engine's scratch geometry.
    const std::vector<std::vector<VisibleSat>> visible =
        engine.geometry(t).per_station;
    std::vector<ContactEdge> want;
    for (std::size_t g = 0; g < stations.size(); ++g) {
      const groundseg::GroundStation& gs = stations[g];
      const weather::WeatherSample sample = wx.actual(
          gs.location.latitude_rad, gs.location.longitude_rad, t);
      for (const VisibleSat& v : visible[g]) {
        const link::LinkBudget ref =
            reference_budget(sats[static_cast<std::size_t>(v.sat)], gs, v,
                             sample);
        link::expect_same_budget(
            engine.link_budget(v.sat, static_cast<int>(g), v.range_km,
                               v.elevation_rad, sample),
            ref);
        ++pairs;
        rainy += ref.rain_db > 0.0 ? 1 : 0;
        if (!ref.closes()) continue;
        ContactEdge e;
        e.sat = v.sat;
        e.station = static_cast<int>(g);
        e.elevation_rad = v.elevation_rad;
        e.range_km = v.range_km;
        e.predicted_rate_bps = ref.data_rate_bps;
        e.modcod = ref.modcod;
        want.push_back(e);
      }
    }
    const std::vector<ContactEdge> got = engine.contacts(t);
    ASSERT_EQ(got.size(), want.size()) << "minute " << m;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].sat, want[i].sat);
      EXPECT_EQ(got[i].station, want[i].station);
      EXPECT_EQ(got[i].predicted_rate_bps, want[i].predicted_rate_bps);
      EXPECT_EQ(got[i].modcod, want[i].modcod);
    }
  }
  EXPECT_GT(pairs, 100);
  EXPECT_GT(rainy, 0);
}

TEST(LinkKernelEngine, ARadioOutsideTheModelThrowsWhenTheEngineIsBuilt) {
  auto sats = groundseg::generate_constellation(mixed_net(), kEpoch);
  const auto stations = groundseg::generate_dgs_stations(mixed_net());
  sats.back().radio.frequency_hz = 0.4e9;  // UHF: outside P.838
  EXPECT_THROW(VisibilityEngine(sats, stations, nullptr),
               std::invalid_argument);
  sats.back().radio = link::RadioSpec{};
  sats.front().radio.channels = 0;
  EXPECT_THROW(VisibilityEngine(sats, stations, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace dgs::core
