// Contact graph construction: geometry, masks, constraints, weather input,
// and thread-count independence of the produced edges.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/core/lookahead.h"
#include "src/core/visibility.h"
#include "src/orbit/passes.h"
#include "src/util/angles.h"
#include "src/weather/synthetic.h"

namespace dgs::core {
namespace {

using util::deg2rad;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

groundseg::NetworkOptions small_opts() {
  groundseg::NetworkOptions opts;
  opts.num_stations = 12;
  opts.num_satellites = 8;
  opts.seed = 7;
  return opts;
}

class VisibilityTest : public ::testing::Test {
 protected:
  VisibilityTest()
      : sats_(groundseg::generate_constellation(small_opts(), kEpoch)),
        stations_(groundseg::generate_dgs_stations(small_opts())),
        engine_(sats_, stations_, nullptr) {}

  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
  VisibilityEngine engine_;
};

TEST_F(VisibilityTest, EdgesRespectElevationMasks) {
  for (double h = 0.0; h < 3.0; h += 0.25) {
    const util::Epoch t = kEpoch.plus_seconds(h * 3600.0);
    for (const ContactEdge& e : engine_.contacts(t)) {
      EXPECT_GE(e.elevation_rad,
                stations_[e.station].min_elevation_rad - 1e-9);
      EXPECT_GT(e.range_km, 400.0);   // never below the orbit altitude
      EXPECT_LT(e.range_km, 3500.0);  // LEO horizon limit
    }
  }
}

TEST_F(VisibilityTest, EdgesAgreeWithPassPredictor) {
  // Cross-check against the independent pass predictor for one pair.
  const orbit::Sgp4 prop(sats_[0].tle);
  const auto& gs = stations_[0];
  orbit::PassPredictorOptions popts;
  popts.min_elevation_rad = gs.min_elevation_rad;
  const auto passes = orbit::predict_passes(prop, gs.location, kEpoch,
                                            kEpoch.plus_days(0.5), popts);
  for (const orbit::Pass& p : passes) {
    const util::Epoch mid = p.aos.plus_seconds(p.duration_seconds() / 2.0);
    EXPECT_TRUE(engine_.visible(0, 0, mid));
    bool found = false;
    for (const ContactEdge& e : engine_.contacts(mid)) {
      if (e.sat == 0 && e.station == 0) found = true;
    }
    EXPECT_TRUE(found) << "pass at " << mid.to_string();
  }
}

TEST_F(VisibilityTest, SomeContactsExistOverAnOrbit) {
  int total = 0;
  for (double m = 0.0; m < 100.0; m += 5.0) {
    total += static_cast<int>(
        engine_.contacts(kEpoch.plus_seconds(m * 60.0)).size());
  }
  EXPECT_GT(total, 0);
}

TEST_F(VisibilityTest, PredictedRatesDecreaseWithRange) {
  // Within a single station's simultaneous contacts, a much longer slant
  // range never yields a faster predicted rate.
  for (double m = 0.0; m < 200.0; m += 10.0) {
    const auto edges = engine_.contacts(kEpoch.plus_seconds(m * 60.0));
    for (const auto& a : edges) {
      for (const auto& b : edges) {
        if (a.station != b.station) continue;
        if (a.range_km > b.range_km * 1.8) {
          EXPECT_LE(a.predicted_rate_bps, b.predicted_rate_bps + 1e-6);
        }
      }
    }
  }
}

TEST_F(VisibilityTest, ConstraintsRemoveEdges) {
  // Deny satellite 0 everywhere; its edges must vanish.
  auto constrained = stations_;
  for (auto& gs : constrained) {
    gs.constraints = groundseg::DownlinkConstraints(sats_.size());
    gs.constraints.deny(0);
  }
  VisibilityEngine restricted(sats_, constrained, nullptr);
  for (double m = 0.0; m < 300.0; m += 7.0) {
    for (const ContactEdge& e :
         restricted.contacts(kEpoch.plus_seconds(m * 60.0))) {
      EXPECT_NE(e.sat, 0);
    }
  }
}

TEST_F(VisibilityTest, RainAtAStationReducesItsPredictedRate) {
  // A provider that rains hard everywhere vs clear sky.
  class Monsoon final : public weather::WeatherProvider {
   public:
    weather::WeatherSample actual(double, double,
                                  const util::Epoch&) const override {
      return {40.0, 2.0};
    }
  } monsoon;

  VisibilityEngine wet(sats_, stations_, &monsoon);
  for (double m = 0.0; m < 200.0; m += 10.0) {
    const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
    const auto clear_edges = engine_.contacts(t);
    const auto wet_edges = wet.contacts(t);
    // Wet predictions never exceed clear ones for the same pair.
    for (const auto& ce : clear_edges) {
      for (const auto& we : wet_edges) {
        if (we.sat == ce.sat && we.station == ce.station) {
          EXPECT_LE(we.predicted_rate_bps, ce.predicted_rate_bps + 1e-6);
        }
      }
    }
    // And the wet graph cannot contain extra edges.
    EXPECT_LE(wet_edges.size(), clear_edges.size());
  }
}

TEST_F(VisibilityTest, SatelliteEcefIsLeoAltitude) {
  for (int s = 0; s < engine_.num_sats(); ++s) {
    const double r = engine_.satellite_ecef(s, kEpoch).norm();
    EXPECT_GT(r, 6800.0);
    EXPECT_LT(r, 7050.0);
  }
}

TEST_F(VisibilityTest, LeadVectorSizeValidated) {
  std::vector<double> bad(3, 0.0);  // wrong size
  EXPECT_THROW(engine_.contacts(kEpoch, bad), std::invalid_argument);
}

struct EngineFixture : public ::testing::Test {
  EngineFixture() {
    groundseg::NetworkOptions net;
    net.num_satellites = 8;
    net.num_stations = 10;
    net.seed = 5;
    sats = groundseg::generate_constellation(net, kEpoch);
    stations = groundseg::generate_dgs_stations(net);
  }
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  weather::SyntheticWeatherProvider wx{13, kEpoch, 4.0};
};

void expect_same_edges(const std::vector<ContactEdge>& a,
                       const std::vector<ContactEdge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sat, b[i].sat);
    EXPECT_EQ(a[i].station, b[i].station);
    EXPECT_EQ(a[i].elevation_rad, b[i].elevation_rad);
    EXPECT_EQ(a[i].range_km, b[i].range_km);
    EXPECT_EQ(a[i].predicted_rate_bps, b[i].predicted_rate_bps);
    EXPECT_EQ(a[i].modcod, b[i].modcod);
  }
}

TEST_F(EngineFixture, ThreadedContactsIdenticalToSerial) {
  VisibilityEngine serial(sats, stations, &wx);
  VisibilityEngine threaded(sats, stations, &wx);
  util::ThreadPool pool(
      util::ParallelConfig{.num_threads = 4, .chunk_size = 2});
  threaded.set_thread_pool(&pool);
  std::vector<double> leads(sats.size(), 1800.0);  // stale-plan forecasts
  for (int k = 0; k < 6; ++k) {
    const util::Epoch t = kEpoch.plus_seconds(k * 60.0);
    expect_same_edges(serial.contacts(t, leads), threaded.contacts(t, leads));
  }
}

/// Pass-through provider that counts calls (both kinds) and records the
/// sampled points, as perfbench's recording wrapper does.
class CountingWeather final : public weather::WeatherProvider {
 public:
  explicit CountingWeather(const weather::WeatherProvider* inner)
      : inner_(inner) {}

  weather::WeatherSample actual(double lat, double lon,
                                const util::Epoch& when) const override {
    ++calls_;
    return inner_->actual(lat, lon, when);
  }
  weather::WeatherSample forecast(double lat, double lon,
                                  const util::Epoch& when,
                                  double lead_seconds) const override {
    ++calls_;
    return inner_->forecast(lat, lon, when, lead_seconds);
  }

  int take_calls() const { return calls_.exchange(0); }

 private:
  const weather::WeatherProvider* inner_;
  mutable std::atomic<int> calls_{0};
};

struct ForecastMemoFixture : public ::testing::Test {
  ForecastMemoFixture() {
    groundseg::NetworkOptions net;
    net.num_satellites = 60;
    net.num_stations = 40;
    net.seed = 11;
    sats = groundseg::generate_constellation(net, kEpoch);
    stations = groundseg::generate_dgs_stations(net);
  }

  /// Visible (allowed, above-mask) pairs at `when` and the number of
  /// stations that see at least one satellite.
  std::pair<int, int> visible_pairs_and_stations(const VisibilityEngine& e,
                                                 const util::Epoch& when) {
    int pairs = 0;
    int seeing = 0;
    for (int g = 0; g < e.num_stations(); ++g) {
      int here = 0;
      for (int s = 0; s < e.num_sats(); ++s) {
        if (stations[static_cast<std::size_t>(g)].constraints.allows(
                static_cast<std::size_t>(s)) &&
            e.visible(s, g, when)) {
          ++here;
        }
      }
      pairs += here;
      if (here > 0) ++seeing;
    }
    return {pairs, seeing};
  }

  /// Memo-free reference: one single-satellite engine per satellite, so
  /// every station samples the weather once per satellite, merged into
  /// the engine's station-major, satellite-minor order.
  std::vector<ContactEdge> reference(const util::Epoch& when,
                                     const std::vector<double>& leads) {
    std::vector<std::vector<ContactEdge>> per_station(stations.size());
    for (std::size_t s = 0; s < sats.size(); ++s) {
      const std::vector<groundseg::SatelliteConfig> one = {sats[s]};
      auto restricted = stations;
      for (auto& gs : restricted) {
        const bool allowed = gs.constraints.allows(s);
        gs.constraints = groundseg::DownlinkConstraints(1);
        if (!allowed) gs.constraints.deny(0);
      }
      const VisibilityEngine single(one, restricted, &wx);
      const std::vector<double> lead = {leads[s]};
      for (ContactEdge e : single.contacts(when, lead)) {
        e.sat = static_cast<int>(s);
        per_station[static_cast<std::size_t>(e.station)].push_back(e);
      }
    }
    std::vector<ContactEdge> out;
    for (const auto& v : per_station) out.insert(out.end(), v.begin(), v.end());
    return out;
  }

  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  weather::SyntheticWeatherProvider wx{17, kEpoch, 4.0};
};

TEST_F(ForecastMemoFixture, OneForecastPerStationAndLead) {
  CountingWeather counting(&wx);
  VisibilityEngine engine(sats, stations, &counting);
  const std::vector<double> uniform(sats.size(), 1800.0);
  std::vector<double> distinct(sats.size());
  for (std::size_t s = 0; s < sats.size(); ++s) {
    distinct[s] = 600.0 + 7.0 * static_cast<double>(s);
  }
  int checked_pairs = 0;
  for (int k = 0; k < 12; ++k) {
    const util::Epoch t = kEpoch.plus_seconds(k * 300.0);
    const auto [pairs, seeing] = visible_pairs_and_stations(engine, t);
    checked_pairs += pairs;

    // Uniform leads (a look-ahead horizon step): one forecast per station
    // that sees a satellite.
    expect_same_edges(engine.contacts(t, uniform), reference(t, uniform));
    EXPECT_EQ(counting.take_calls(), seeing) << "step " << k;

    // Pairwise-distinct leads: one forecast per visible pair.
    expect_same_edges(engine.contacts(t, distinct), reference(t, distinct));
    EXPECT_EQ(counting.take_calls(), pairs) << "step " << k;

    // Zero lead: the actual weather, once per station.
    expect_same_edges(engine.contacts(t),
                      reference(t, std::vector<double>(sats.size(), 0.0)));
    EXPECT_EQ(counting.take_calls(), seeing) << "step " << k;
  }
  EXPECT_GT(checked_pairs, 100);  // the counts are not vacuous
}

/// Pass-through provider that records every call: the calling thread, the
/// point, the lead (-1 for actual()) and the sample returned.
class ThreadRecordingWeather final : public weather::WeatherProvider {
 public:
  using ThreadId = decltype(std::this_thread::get_id());
  struct Call {
    ThreadId thread;
    double lat = 0.0;
    double lon = 0.0;
    double lead = 0.0;
    weather::WeatherSample sample;
  };

  explicit ThreadRecordingWeather(const weather::WeatherProvider* inner)
      : inner_(inner) {}

  weather::WeatherSample actual(double lat, double lon,
                                const util::Epoch& when) const override {
    return record(lat, lon, -1.0,
                  [&] { return inner_->actual(lat, lon, when); });
  }
  weather::WeatherSample forecast(double lat, double lon,
                                  const util::Epoch& when,
                                  double lead_seconds) const override {
    return record(lat, lon, lead_seconds, [&] {
      return inner_->forecast(lat, lon, when, lead_seconds);
    });
  }

  std::vector<Call> take_calls() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(calls_, {});
  }

 private:
  template <class Sample>
  weather::WeatherSample record(double lat, double lon, double lead,
                                Sample&& sample) const {
    // Serialized, so that a provider called from pool lanes (the fault
    // this fake detects) is recorded rather than raced on.
    const std::lock_guard<std::mutex> lock(mu_);
    const weather::WeatherSample s = sample();
    calls_.push_back(Call{std::this_thread::get_id(), lat, lon, lead, s});
    return s;
  }

  const weather::WeatherProvider* inner_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
};

TEST_F(ForecastMemoFixture, WeatherIsSampledOnTheCallingThreadOnly) {
  // A 4-lane engine and a 1-lane one, each behind its own recorder, with
  // per-satellite leads (some zero: actual weather) and a down mask, both
  // through contacts() and through a PlanGeometry table.
  ThreadRecordingWeather lanes_wx(&wx);
  ThreadRecordingWeather serial_wx(&wx);
  VisibilityEngine lanes(sats, stations, &lanes_wx);
  VisibilityEngine serial(sats, stations, &serial_wx);
  util::ThreadPool four(
      util::ParallelConfig{.num_threads = 4, .chunk_size = 2});
  util::ThreadPool one(
      util::ParallelConfig{.num_threads = 1, .chunk_size = 2});
  lanes.set_thread_pool(&four);
  serial.set_thread_pool(&one);
  std::vector<double> leads(sats.size());
  for (std::size_t s = 0; s < sats.size(); ++s) {
    leads[s] = s % 4 == 0 ? 0.0 : 300.0 * static_cast<double>(s % 5 + 1);
  }
  std::vector<char> down(stations.size(), 0);
  for (std::size_t g = 0; g < stations.size(); g += 3) down[g] = 1;
  std::set<std::pair<double, double>> up_sites;
  for (std::size_t g = 0; g < stations.size(); ++g) {
    if (down[g] == 0) {
      up_sites.emplace(stations[g].location.latitude_rad,
                       stations[g].location.longitude_rad);
    }
  }

  const auto test_thread = std::this_thread::get_id();
  PlanGeometry lanes_table(4);
  PlanGeometry serial_table(4);
  std::size_t checked = 0;
  for (int k = 0; k < 12; ++k) {
    const util::Epoch t = kEpoch.plus_seconds(k * 300.0);
    expect_same_edges(lanes.contacts(t, leads, down),
                      serial.contacts(t, leads, down));
    expect_same_edges(lanes_table.contacts(lanes, t, 300.0, leads, down),
                      serial_table.contacts(serial, t, 300.0, leads, down));
    const std::vector<ThreadRecordingWeather::Call> got =
        lanes_wx.take_calls();
    const std::vector<ThreadRecordingWeather::Call> want =
        serial_wx.take_calls();
    ASSERT_EQ(got.size(), want.size()) << "step " << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].thread, test_thread) << "step " << k << " call " << i;
      EXPECT_EQ(got[i].lat, want[i].lat);
      EXPECT_EQ(got[i].lon, want[i].lon);
      EXPECT_EQ(got[i].lead, want[i].lead);
      EXPECT_EQ(got[i].sample.rain_rate_mm_h, want[i].sample.rain_rate_mm_h);
      EXPECT_EQ(got[i].sample.cloud_liquid_kg_m2,
                want[i].sample.cloud_liquid_kg_m2);
      EXPECT_EQ(up_sites.count({got[i].lat, got[i].lon}), 1u);
    }
    checked += got.size();
  }
  EXPECT_GT(checked, 100u);  // the comparison is not vacuous
}

/// A downpour over the northern hemisphere and clear sky elsewhere, so
/// some budgets close and some do not.
class NorthernDownpour final : public weather::WeatherProvider {
 public:
  weather::WeatherSample actual(double lat, double,
                                const util::Epoch&) const override {
    weather::WeatherSample s;
    if (lat > 0.0) {
      s.rain_rate_mm_h = 150.0;
      s.cloud_liquid_kg_m2 = 3.0;
    }
    return s;
  }
};

TEST_F(ForecastMemoFixture, BudgetAndEdgeCountersCountEachQueryOnce) {
  // One contacts() query evaluates one budget per weather sample (a
  // visible pair of an up station) and adds its returned edges, counted on
  // the driver thread at any lane count.
  const NorthernDownpour downpour;
  std::vector<char> down(stations.size(), 0);
  for (std::size_t g = 0; g < stations.size(); g += 3) down[g] = 1;
  for (const int lanes : {1, 4}) {
    VisibilityCounts counts;
    VisibilityEngine engine(sats, stations, &downpour);
    util::ThreadPool pool(
        util::ParallelConfig{.num_threads = lanes, .chunk_size = 2});
    engine.set_thread_pool(&pool);
    engine.set_counts(&counts);
    std::int64_t total_samples = 0;
    std::int64_t total_edges = 0;
    for (int k = 0; k < 12; ++k) {
      const util::Epoch t = kEpoch.plus_seconds(k * 300.0);
      std::int64_t samples = 0;
      for (int g = 0; g < engine.num_stations(); ++g) {
        if (down[static_cast<std::size_t>(g)] != 0) continue;
        for (int s = 0; s < engine.num_sats(); ++s) {
          if (stations[static_cast<std::size_t>(g)].constraints.allows(
                  static_cast<std::size_t>(s)) &&
              engine.visible(s, g, t)) {
            samples += 1;
          }
        }
      }
      const VisibilityCounts before = counts;
      const auto got =
          static_cast<std::int64_t>(engine.contacts(t, {}, down).size());
      EXPECT_EQ(counts.link_budgets - before.link_budgets, samples)
          << lanes << " lanes, step " << k;
      EXPECT_EQ(counts.contact_edges - before.contact_edges, got)
          << lanes << " lanes, step " << k;
      total_samples += samples;
      total_edges += got;
    }
    // Not vacuous, and the two counters count different things.
    EXPECT_GT(total_edges, 50);
    EXPECT_LT(total_edges, total_samples);
  }
}

TEST_F(ForecastMemoFixture, NanLeadStillReachesForecast) {
  VisibilityEngine engine(sats, stations, &wx);
  std::vector<double> leads(sats.size(), std::nan(""));
  bool threw = false;
  for (int k = 0; k < 12 && !threw; ++k) {
    try {
      engine.contacts(kEpoch.plus_seconds(k * 300.0), leads);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace dgs::core
