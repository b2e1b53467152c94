// Synthetic weather provider: determinism, physical bounds, correlation
// structure, forecast error growth, the storm-field index and the forecast
// memo checked bit for bit against a scan of every storm, and a pin of a
// fixed grid of samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/angles.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/weather/climatology.h"
#include "src/weather/synthetic.h"

namespace dgs::weather {

/// Test-only access to the provider's storms and its per-instant sampler.
struct SyntheticWeatherPeer {
  static constexpr double kEarthRadiusKm = 6371.0;

  static WeatherSample sample_at(const SyntheticWeatherProvider& wx,
                                 double lat, double lon, double t_s) {
    return wx.sample_at(lat, lon, t_s);
  }

  static std::vector<std::pair<double, double>> lifetimes(
      const SyntheticWeatherProvider& wx) {
    std::vector<std::pair<double, double>> out;
    for (const SyntheticWeatherProvider::Storm& s : wx.storms_) {
      out.emplace_back(s.birth_s, s.death_s);
    }
    return out;
  }

  static double seconds_since_start(const SyntheticWeatherProvider& wx,
                                    const util::Epoch& when) {
    return when.seconds_since(wx.start_);
  }

  /// The per-sample scan over every storm that the storm-field index
  /// replaced, kept as it was: the oracle.
  static WeatherSample scan(const SyntheticWeatherProvider& wx, double lat,
                            double lon, double t_s) {
    WeatherSample out;
    out.cloud_liquid_kg_m2 = background_cloud_kg_m2(lat);
    for (const SyntheticWeatherProvider::Storm& s : wx.storms_) {
      if (t_s < s.birth_s || t_s > s.death_s) continue;
      const double age = t_s - s.birth_s;
      const double c_lat = s.lat0_rad + s.vel_north_rad_s * age;
      const double c_lon = s.lon0_rad + s.vel_east_rad_s * age;
      const double cloud_sigma = s.radius_km;
      const double rain_sigma = s.radius_km / 4.0;
      if (std::fabs(lat - c_lat) * kEarthRadiusKm > 3.5 * cloud_sigma) {
        continue;
      }
      const double d_km =
          util::great_circle_angle(lat, lon, c_lat, c_lon) * kEarthRadiusKm;
      if (d_km > 3.5 * cloud_sigma) continue;
      const double life = s.death_s - s.birth_s;
      const double envelope = std::sin(util::kPi * age / life);
      if (d_km < 2.5 * rain_sigma) {
        const double rain =
            s.peak_rain_mm_h * envelope *
            std::exp(-d_km * d_km / (2.0 * rain_sigma * rain_sigma));
        out.rain_rate_mm_h = std::max(out.rain_rate_mm_h, rain);
      }
      out.cloud_liquid_kg_m2 +=
          s.cloud_kg_m2 * envelope *
          std::exp(-d_km * d_km / (2.0 * cloud_sigma * cloud_sigma));
    }
    out.cloud_liquid_kg_m2 = std::min(out.cloud_liquid_kg_m2, 4.0);
    return out;
  }

  /// The point forecast() evaluates the true field at (its displacement,
  /// kept as it was).
  static std::pair<double, double> forecast_point(
      const SyntheticWeatherProvider& wx, double lat, double lon,
      const util::Epoch& when, double lead_seconds) {
    std::uint64_t z =
        wx.seed_ ^ static_cast<std::uint64_t>(when.jd() * 24.0);
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    const std::uint64_t key = z ^ (z >> 31);
    const double err_km =
        wx.opts_.forecast_drift_km_per_hour * (lead_seconds / 3600.0);
    const double angle = static_cast<double>(key % 62832) / 10000.0;
    const double dlat = err_km * std::sin(angle) / kEarthRadiusKm;
    const double coslat = std::max(0.2, std::cos(lat));
    const double dlon = err_km * std::cos(angle) / (kEarthRadiusKm * coslat);
    return {lat + dlat, lon + dlon};
  }
};

namespace {

using util::deg2rad;

class SyntheticWeatherTest : public ::testing::Test {
 protected:
  SyntheticWeatherTest()
      : start_(util::DateTime{2020, 11, 4, 0, 0, 0.0}),
        wx_(42, start_, 24.0) {}
  util::Epoch start_;
  SyntheticWeatherProvider wx_;
};

TEST_F(SyntheticWeatherTest, DeterministicForSameSeed) {
  SyntheticWeatherProvider other(42, start_, 24.0);
  for (double lat : {-60.0, -5.0, 30.0, 52.0}) {
    for (double h : {0.0, 6.0, 18.0}) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(13.0),
                                start_.plus_seconds(h * 3600));
      const auto b = other.actual(deg2rad(lat), deg2rad(13.0),
                                  start_.plus_seconds(h * 3600));
      EXPECT_DOUBLE_EQ(a.rain_rate_mm_h, b.rain_rate_mm_h);
      EXPECT_DOUBLE_EQ(a.cloud_liquid_kg_m2, b.cloud_liquid_kg_m2);
    }
  }
}

TEST_F(SyntheticWeatherTest, DifferentSeedsDiffer) {
  SyntheticWeatherProvider other(43, start_, 24.0);
  int diffs = 0;
  for (double lat = -80.0; lat <= 80.0; lat += 10.0) {
    for (double lon = -170.0; lon <= 170.0; lon += 20.0) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(lon), start_);
      const auto b = other.actual(deg2rad(lat), deg2rad(lon), start_);
      if (a.cloud_liquid_kg_m2 != b.cloud_liquid_kg_m2) ++diffs;
    }
  }
  EXPECT_GT(diffs, 10);
}

TEST_F(SyntheticWeatherTest, PhysicalBoundsEverywhere) {
  for (double lat = -85.0; lat <= 85.0; lat += 8.5) {
    for (double lon = -175.0; lon <= 175.0; lon += 17.0) {
      for (double h : {0.0, 7.0, 13.0, 23.0}) {
        const auto s = wx_.actual(deg2rad(lat), deg2rad(lon),
                                  start_.plus_seconds(h * 3600));
        EXPECT_GE(s.rain_rate_mm_h, 0.0);
        EXPECT_LE(s.rain_rate_mm_h, 120.0);
        EXPECT_GE(s.cloud_liquid_kg_m2, 0.0);
        EXPECT_LE(s.cloud_liquid_kg_m2, 4.0);
      }
    }
  }
}

TEST_F(SyntheticWeatherTest, SpatialCorrelation) {
  // Points 20 km apart are much more similar than points 2000 km apart, in
  // aggregate over many probes.
  double near_diff = 0.0, far_diff = 0.0;
  int n = 0;
  for (double lat = -50.0; lat <= 50.0; lat += 5.0) {
    for (double lon = -150.0; lon <= 150.0; lon += 30.0) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(lon), start_);
      const auto b =
          wx_.actual(deg2rad(lat + 0.18), deg2rad(lon), start_);  // ~20 km
      const auto c =
          wx_.actual(deg2rad(lat + 18.0), deg2rad(lon), start_);  // ~2000 km
      near_diff += std::fabs(a.cloud_liquid_kg_m2 - b.cloud_liquid_kg_m2);
      far_diff += std::fabs(a.cloud_liquid_kg_m2 - c.cloud_liquid_kg_m2);
      ++n;
    }
  }
  EXPECT_LT(near_diff / n, far_diff / n);
}

TEST_F(SyntheticWeatherTest, TemporalCorrelation) {
  double near_diff = 0.0, far_diff = 0.0;
  int n = 0;
  for (double lat = -50.0; lat <= 50.0; lat += 10.0) {
    for (double lon = -150.0; lon <= 150.0; lon += 50.0) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(6 * 3600));
      const auto b = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(6 * 3600 + 300));
      const auto c = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(18 * 3600));
      near_diff += std::fabs(a.cloud_liquid_kg_m2 - b.cloud_liquid_kg_m2);
      far_diff += std::fabs(a.cloud_liquid_kg_m2 - c.cloud_liquid_kg_m2);
      ++n;
    }
  }
  EXPECT_LT(near_diff / n, far_diff / n);
}

TEST_F(SyntheticWeatherTest, SomeRainExistsSomewhere) {
  int rainy = 0, total = 0;
  for (double lat = -60.0; lat <= 60.0; lat += 3.0) {
    for (double lon = -180.0; lon < 180.0; lon += 6.0) {
      const auto s = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(12 * 3600));
      if (s.rain_rate_mm_h > 0.1) ++rainy;
      ++total;
    }
  }
  EXPECT_GT(rainy, 0);
  // ...but rain is localized: well under half the globe at any instant.
  EXPECT_LT(static_cast<double>(rainy) / total, 0.5);
}

TEST_F(SyntheticWeatherTest, ZeroLeadForecastMatchesActual) {
  for (double lat : {-30.0, 10.0, 48.0}) {
    const auto f = wx_.forecast(deg2rad(lat), deg2rad(5.0),
                                start_.plus_seconds(3600), 0.0);
    const auto a =
        wx_.actual(deg2rad(lat), deg2rad(5.0), start_.plus_seconds(3600));
    EXPECT_DOUBLE_EQ(f.rain_rate_mm_h, a.rain_rate_mm_h);
    EXPECT_DOUBLE_EQ(f.cloud_liquid_kg_m2, a.cloud_liquid_kg_m2);
  }
}

TEST_F(SyntheticWeatherTest, ForecastErrorGrowsWithLead) {
  double short_err = 0.0, long_err = 0.0;
  int n = 0;
  for (double lat = -50.0; lat <= 50.0; lat += 4.0) {
    for (double lon = -150.0; lon <= 150.0; lon += 25.0) {
      const util::Epoch when = start_.plus_seconds(10 * 3600);
      const auto actual = wx_.actual(deg2rad(lat), deg2rad(lon), when);
      const auto f1 = wx_.forecast(deg2rad(lat), deg2rad(lon), when, 1800.0);
      const auto f8 = wx_.forecast(deg2rad(lat), deg2rad(lon), when,
                                   8 * 3600.0);
      short_err +=
          std::fabs(f1.cloud_liquid_kg_m2 - actual.cloud_liquid_kg_m2);
      long_err +=
          std::fabs(f8.cloud_liquid_kg_m2 - actual.cloud_liquid_kg_m2);
      ++n;
    }
  }
  EXPECT_LT(short_err / n, long_err / n);
}

TEST_F(SyntheticWeatherTest, ForecastRejectsNegativeLead) {
  EXPECT_THROW(wx_.forecast(0.0, 0.0, start_, -1.0), std::invalid_argument);
}

// --- Storm-field index vs the scan over every storm -------------------------

void expect_same(const WeatherSample& got, const WeatherSample& want) {
  // Exact equality: the index only skips storms that add nothing.
  EXPECT_EQ(got.rain_rate_mm_h, want.rain_rate_mm_h);
  EXPECT_EQ(got.cloud_liquid_kg_m2, want.cloud_liquid_kg_m2);
}

using Peer = SyntheticWeatherPeer;

TEST_F(SyntheticWeatherTest, FieldMatchesScanOnRandomQueries) {
  util::Rng rng(2027);
  int stormy = 0;
  for (int instant = 0; instant < 40; ++instant) {
    const util::Epoch when =
        start_.plus_seconds(rng.uniform(-2.0, 26.0) * 3600.0);
    const double t_s = Peer::seconds_since_start(wx_, when);
    for (int q = 0; q < 100; ++q) {
      const double lat = rng.uniform(-util::kPi / 2.0, util::kPi / 2.0);
      const double lon = q % 10 == 0
                             ? rng.uniform(-4.0 * util::kPi, 4.0 * util::kPi)
                             : rng.uniform(-util::kPi, util::kPi);
      const WeatherSample want = Peer::scan(wx_, lat, lon, t_s);
      expect_same(wx_.actual(lat, lon, when), want);
      if (want.cloud_liquid_kg_m2 > background_cloud_kg_m2(lat)) ++stormy;
    }
    for (int q = 0; q < 25; ++q) {
      const double lat = rng.uniform(-util::kPi / 2.0, util::kPi / 2.0);
      const double lon = rng.uniform(-util::kPi, util::kPi);
      const double lead = rng.uniform(1.0, 12.0 * 3600.0);
      const auto [f_lat, f_lon] =
          Peer::forecast_point(wx_, lat, lon, when, lead);
      expect_same(wx_.forecast(lat, lon, when, lead),
                  Peer::scan(wx_, f_lat, f_lon, t_s));
    }
  }
  // The comparison is not vacuous: many queries sit under a storm.
  EXPECT_GT(stormy, 1000);
}

TEST_F(SyntheticWeatherTest, FieldMatchesScanNearAndBeyondThePoles) {
  const double beyond[] = {0.0, 1e-12, 1e-6, 0.01, 0.1, 0.5, 2.0};
  int displaced_past_pole = 0;
  for (double h : {0.5, 6.0, 11.0, 17.5, 23.0}) {
    const util::Epoch when = start_.plus_seconds(h * 3600.0);
    const double t_s = Peer::seconds_since_start(wx_, when);
    for (double lon = -180.0; lon < 180.0; lon += 7.5) {
      for (double sign : {-1.0, 1.0}) {
        const double near = sign * deg2rad(89.9);
        expect_same(wx_.actual(near, deg2rad(lon), when),
                    Peer::scan(wx_, near, deg2rad(lon), t_s));
        // Latitudes past the pole reach sample_at through forecast().
        for (double d : beyond) {
          const double lat = sign * (util::kPi / 2.0 + d);
          expect_same(wx_.actual(lat, deg2rad(lon), when),
                      Peer::scan(wx_, lat, deg2rad(lon), t_s));
        }
        for (double lead_h : {2.0, 12.0, 24.0}) {
          const auto [f_lat, f_lon] = Peer::forecast_point(
              wx_, near, deg2rad(lon), when, lead_h * 3600.0);
          if (std::fabs(f_lat) > util::kPi / 2.0) ++displaced_past_pole;
          expect_same(wx_.forecast(near, deg2rad(lon), when, lead_h * 3600.0),
                      Peer::scan(wx_, f_lat, f_lon, t_s));
        }
      }
    }
  }
  EXPECT_GT(displaced_past_pole, 0);
}

TEST_F(SyntheticWeatherTest, FieldMatchesScanAcrossTheDateLine) {
  const double pi = util::kPi;
  const double lons[] = {-pi,
                         pi,
                         std::nextafter(-pi, 0.0),
                         std::nextafter(pi, 0.0),
                         std::nextafter(-pi, -4.0),
                         std::nextafter(pi, 4.0),
                         -pi - 1e-3,
                         pi + 1e-3,
                         pi - 0.05,
                         -pi + 0.05,
                         3.0 * pi};
  for (double h : {1.0, 9.0, 16.0, 22.0}) {
    const util::Epoch when = start_.plus_seconds(h * 3600.0);
    const double t_s = Peer::seconds_since_start(wx_, when);
    for (double lat = -85.0; lat <= 85.0; lat += 0.5) {
      for (double lon : lons) {
        expect_same(wx_.actual(deg2rad(lat), lon, when),
                    Peer::scan(wx_, deg2rad(lat), lon, t_s));
      }
    }
  }
}

TEST_F(SyntheticWeatherTest, FieldMatchesScanAtBirthDeathAndOutsideHorizon) {
  const auto lifetimes = Peer::lifetimes(wx_);
  ASSERT_GT(lifetimes.size(), 60u);
  std::vector<double> instants = {-1e7, -1.0, 24.0 * 3600.0 + 1e6, 1e9};
  for (std::size_t i = 0; i < 60; ++i) {
    instants.push_back(lifetimes[i].first);
    instants.push_back(lifetimes[i].second);
  }
  for (double t_s : instants) {
    for (double lat = -80.0; lat <= 80.0; lat += 10.0) {
      for (double lon = -180.0; lon < 180.0; lon += 15.0) {
        expect_same(
            Peer::sample_at(wx_, deg2rad(lat), deg2rad(lon), t_s),
            Peer::scan(wx_, deg2rad(lat), deg2rad(lon), t_s));
      }
    }
  }
  // Far outside the horizon only the climatological background remains.
  const WeatherSample none = Peer::sample_at(wx_, 0.3, 1.0, 1e9);
  EXPECT_EQ(none.rain_rate_mm_h, 0.0);
  EXPECT_EQ(none.cloud_liquid_kg_m2, background_cloud_kg_m2(0.3));
}

TEST_F(SyntheticWeatherTest, FieldMatchesScanWhenInstantsAlternate) {
  // actual() and forecast() alternate between two instants, so the field
  // is rebuilt on every call.
  const util::Epoch t1 = start_.plus_seconds(5.0 * 3600.0);
  const util::Epoch t2 = start_.plus_seconds(5.0 * 3600.0 + 60.0);
  const double t1_s = Peer::seconds_since_start(wx_, t1);
  const double t2_s = Peer::seconds_since_start(wx_, t2);
  for (double lat = -70.0; lat <= 70.0; lat += 2.0) {
    for (double lon = -175.0; lon < 180.0; lon += 10.0) {
      const double la = deg2rad(lat);
      const double lo = deg2rad(lon);
      expect_same(wx_.actual(la, lo, t1), Peer::scan(wx_, la, lo, t1_s));
      const auto [f_lat, f_lon] = Peer::forecast_point(wx_, la, lo, t2, 5400.0);
      expect_same(wx_.forecast(la, lo, t2, 5400.0),
                  Peer::scan(wx_, f_lat, f_lon, t2_s));
    }
  }
}

// --- The engine's call pattern: a warm memo changes no bit ------------------

/// Bit equality: a warm provider must return exactly what a cold one does,
/// NaN payloads included.
void expect_same_bits(const WeatherSample& got, const WeatherSample& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rain_rate_mm_h),
            std::bit_cast<std::uint64_t>(want.rain_rate_mm_h));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cloud_liquid_kg_m2),
            std::bit_cast<std::uint64_t>(want.cloud_liquid_kg_m2));
}

/// expect_same, where a NaN query's NaN sample matches the scan's NaN
/// (whose payload the two expression orders may set differently).
void expect_same_or_nan(const WeatherSample& got, const WeatherSample& want) {
  const auto same = [](double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  EXPECT_TRUE(same(got.rain_rate_mm_h, want.rain_rate_mm_h))
      << got.rain_rate_mm_h << " vs " << want.rain_rate_mm_h;
  EXPECT_TRUE(same(got.cloud_liquid_kg_m2, want.cloud_liquid_kg_m2))
      << got.cloud_liquid_kg_m2 << " vs " << want.cloud_liquid_kg_m2;
}

TEST_F(SyntheticWeatherTest, ForecastMemoMatchesScanAtTheEngineCallPattern) {
  const double pi = util::kPi;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Station {
    double lat, lon;
  };
  std::vector<Station> stations;
  util::Rng rng(36);
  for (int i = 0; i < 40; ++i) {
    stations.push_back({rng.uniform(deg2rad(-70.0), deg2rad(70.0)),
                        rng.uniform(-pi, pi)});
  }
  // Beyond +-78.5 deg, where the station cosine clamps at 0.2; at 89.9 deg
  // long leads displace the forecast point past the pole.
  for (double lat : {80.0, 85.0, 89.9}) {
    stations.push_back({deg2rad(lat), deg2rad(lat - 100.0)});
    stations.push_back({deg2rad(-lat), deg2rad(100.0 - lat)});
  }
  // On the date line, |lon| exactly pi, and beside it, so leads cross it.
  stations.push_back({deg2rad(10.0), pi});
  stations.push_back({deg2rad(-20.0), -pi});
  stations.push_back({deg2rad(45.0), pi - 0.01});
  stations.push_back({deg2rad(-45.0), -pi + 0.01});
  stations.push_back({nan, 0.3});
  stations.push_back({0.3, nan});
  const double leads[] = {0.0,          60.0,         900.0,
                          3600.0,       3.0 * 3600.0, 6.5 * 3600.0,
                          12.0 * 3600.0, 24.0 * 3600.0};

  // Either side of a valid-hour boundary, so the direction memo changes key.
  const util::Epoch before = start_.plus_seconds(5.0 * 3600.0 - 30.0);
  const util::Epoch after = start_.plus_seconds(5.0 * 3600.0 + 30.0);
  ASSERT_NE(static_cast<std::uint64_t>(before.jd() * 24.0),
            static_cast<std::uint64_t>(after.jd() * 24.0));

  // Never queried: each copy starts with an empty field and a cold memo.
  const SyntheticWeatherProvider pristine(42, start_, 24.0);
  int past_pole = 0, across_date_line = 0, on_date_line = 0, nan_queries = 0;
  int stormy = 0;
  const auto query = [&](const Station& st, const util::Epoch& when,
                         double lead) {
    const double t_s = Peer::seconds_since_start(wx_, when);
    const WeatherSample got = wx_.forecast(st.lat, st.lon, when, lead);
    const auto [f_lat, f_lon] =
        Peer::forecast_point(wx_, st.lat, st.lon, when, lead);
    const WeatherSample want = Peer::scan(wx_, f_lat, f_lon, t_s);
    expect_same_or_nan(got, want);
    SyntheticWeatherProvider fresh = pristine;
    expect_same_bits(got, fresh.forecast(st.lat, st.lon, when, lead));
    if (std::fabs(f_lat) > pi / 2.0) ++past_pole;
    if (std::fabs(f_lon) > pi) ++across_date_line;
    if (std::fabs(f_lon) == pi) ++on_date_line;
    if (std::isnan(f_lat) || std::isnan(f_lon)) ++nan_queries;
    if (want.cloud_liquid_kg_m2 > background_cloud_kg_m2(f_lat)) ++stormy;
  };
  const auto actual = [&](const Station& st, const util::Epoch& when) {
    const WeatherSample got = wx_.actual(st.lat, st.lon, when);
    expect_same_or_nan(got, Peer::scan(wx_, st.lat, st.lon,
                                       Peer::seconds_since_start(wx_, when)));
    SyntheticWeatherProvider fresh = pristine;
    expect_same_bits(got, fresh.actual(st.lat, st.lon, when));
  };

  for (const util::Epoch& when : {before, after}) {
    // The engine's order: each station's satellites in turn, with the
    // execute loop's actual() calls between.
    for (const Station& st : stations) {
      for (double lead : leads) query(st, when, lead);
      actual(st, when);
    }
    // The same queries shuffled, so consecutive calls come from different
    // stations and leads.
    std::vector<std::pair<std::size_t, double>> order;
    for (std::size_t i = 0; i < stations.size(); ++i) {
      for (double lead : leads) order.emplace_back(i, lead);
    }
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(order[i], order[j]);
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      query(stations[order[k].first], when, order[k].second);
      if (k % 7 == 0) actual(stations[order[k].first], when);
    }
  }
  // Every corner case was reached, and many queries sit under a storm.
  EXPECT_GT(past_pole, 0);
  EXPECT_GT(across_date_line, 0);
  EXPECT_GT(on_date_line, 0);
  EXPECT_GT(nan_queries, 0);
  EXPECT_GT(stormy, 100);
}

// --- Weather pin ------------------------------------------------------------
// The CRC32 of the raw bits of a fixed grid of samples, actual and forecast
// at several leads, at three instants.  One ulp in the rain or the cloud
// term fails it.  The rule of test_summary_pin.cpp holds here: a change
// meant to alter samples recomputes the pin and says why.

TEST(WeatherPin, FixedGridOfActualAndForecastSamples) {
  constexpr std::uint32_t kPinned = 0x96d98fa3;
  const util::Epoch start(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const SyntheticWeatherProvider wx(7, start, 24.0);
  std::string bits;
  int rainy = 0;
  const auto put = [&bits, &rainy](const WeatherSample& s) {
    if (s.rain_rate_mm_h > 0.0) ++rainy;
    for (const double v : {s.rain_rate_mm_h, s.cloud_liquid_kg_m2}) {
      const auto b = std::bit_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i) {
        bits.push_back(static_cast<char>((b >> (8 * i)) & 0xff));
      }
    }
  };
  for (const double hours : {1.5, 9.25, 20.0}) {
    const util::Epoch when = start.plus_seconds(hours * 3600.0);
    for (int i = -16; i <= 16; ++i) {
      for (int j = -18; j < 18; ++j) {
        const double lat = deg2rad(5.0 * i);
        const double lon = deg2rad(10.0 * j);
        put(wx.actual(lat, lon, when));
        for (const double lead_h : {0.5, 3.0, 12.0}) {
          put(wx.forecast(lat, lon, when, lead_h * 3600.0));
        }
      }
    }
  }
  EXPECT_GT(rainy, 50);
  EXPECT_EQ(util::crc32({reinterpret_cast<const std::uint8_t*>(bits.data()),
                         bits.size()}),
            kPinned);
}

TEST(SyntheticWeather, RejectsBadConstruction) {
  const util::Epoch start(util::DateTime{2020, 1, 1, 0, 0, 0.0});
  EXPECT_THROW(SyntheticWeatherProvider(1, start, 0.0), std::invalid_argument);
  SyntheticWeatherOptions opts;
  opts.mean_active_storms = -1;
  EXPECT_THROW(SyntheticWeatherProvider(1, start, 24.0, opts),
               std::invalid_argument);
}

TEST(Climatology, TropicsWetterThanPoles) {
  EXPECT_GT(storm_density_weight(0.0), storm_density_weight(deg2rad(80.0)));
  EXPECT_GT(typical_peak_rain_mm_h(0.0),
            typical_peak_rain_mm_h(deg2rad(70.0)));
}

TEST(Climatology, StormTracksWetterThanSubtropics) {
  EXPECT_GT(storm_density_weight(deg2rad(50.0)),
            storm_density_weight(deg2rad(18.0)));
}

TEST(Climatology, HemisphericSymmetry) {
  for (double lat : {10.0, 30.0, 50.0, 70.0}) {
    EXPECT_DOUBLE_EQ(storm_density_weight(deg2rad(lat)),
                     storm_density_weight(deg2rad(-lat)));
    EXPECT_DOUBLE_EQ(background_cloud_kg_m2(deg2rad(lat)),
                     background_cloud_kg_m2(deg2rad(-lat)));
  }
}

}  // namespace
}  // namespace dgs::weather
