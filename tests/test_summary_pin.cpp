// Pinned summaries: the CRC32 of summary_json for two short weather-aware
// runs, per-instant and look-ahead under the storm fault profile, at one
// and four lanes.  Any change to a simulated output bit, an ulp drift in
// the weather or link layers included, fails here.  A change that is meant
// to alter outputs must recompute the pins and say why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/profiles.h"
#include "src/groundseg/network_gen.h"
#include "src/util/crc32.h"
#include "src/weather/synthetic.h"

namespace {

using namespace dgs;

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

std::uint32_t summary_crc(int num_threads, bool lookahead_storm) {
  groundseg::NetworkOptions net;
  net.num_satellites = 40;
  net.num_stations = 30;
  net.seed = 2027;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  weather::SyntheticWeatherProvider wx(2027, kT0, 3.0);

  core::SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 2.0;
  opts.step_seconds = 60.0;
  opts.weather_aware = true;
  opts.parallel.num_threads = num_threads;
  if (lookahead_storm) {
    opts.lookahead_hours = 1.0;
    opts.station_backhaul_bps = 50e6;
    opts.faults =
        faults::make_profile("storm", 11, static_cast<int>(stations.size()));
  }

  core::Session sim(sats, stations, &wx, opts);
  std::ostringstream out;
  core::write_summary_json(out, sim.run_to_end());
  const std::string json = out.str();
  return util::crc32({reinterpret_cast<const std::uint8_t*>(json.data()),
                      json.size()});
}

TEST(SummaryPin, PerInstantWeatherRun) {
  constexpr std::uint32_t kPinned = 0xd192d531;
  EXPECT_EQ(summary_crc(1, false), kPinned);
  EXPECT_EQ(summary_crc(4, false), kPinned);
}

TEST(SummaryPin, LookaheadStormRun) {
  constexpr std::uint32_t kPinned = 0xc75315c0;
  EXPECT_EQ(summary_crc(1, true), kPinned);
  EXPECT_EQ(summary_crc(4, true), kPinned);
}

/// Appends what pins `s` to the last bit: its mean in insertion order
/// (taken before anything sorts it) and then every sample, sorted.
void append_bits(std::string* out, util::SampleSet s) {
  if (s.empty()) return;
  const auto put = [out](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }
  };
  put(s.mean());
  for (const double v : s.sorted()) put(v);
}

// Every delay path at once: an initial backlog whose age is not a whole
// number of steps, urgent chunks, failed transmissions that are
// re-queued, ack-relay faults, a finite backhaul and
// two tenants.  Besides the summary JSON, the pin covers every delay
// sample's bits and each set's insertion-order mean, so a delay rebuilt
// one ulp off, or in another order, fails.  The CRC was taken from the
// session that still stored each delay as minutes.
TEST(SummaryPin, EveryDelayPathRun) {
  groundseg::NetworkOptions net;
  net.num_satellites = 24;
  net.num_stations = 20;
  net.seed = 2029;
  net.tx_fraction = 0.5;
  auto sats = groundseg::generate_constellation(net, kT0);
  for (auto& s : sats) s.radio.frequency_hz = 14.0e9;  // Rain-sensitive.
  const auto stations = groundseg::generate_dgs_stations(net);
  weather::SyntheticWeatherProvider wx(2029, kT0, 7.0);

  core::SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 6.0;
  opts.step_seconds = 60.0;
  // Clear-sky scheduling against rainy actual weather: the failed slots
  // are re-queued.
  opts.weather_aware = false;
  opts.initial_backlog_bytes = 4e9;
  opts.initial_backlog_age_hours = 5.4321;
  opts.urgent_fraction = 0.2;
  opts.station_backhaul_bps = 20e6;
  opts.faults = faults::make_profile("storm", 5, net.num_stations);
  core::TenantSpec a;
  a.name = "a";
  a.weight = 1.0;
  a.sla_latency_minutes = 90.0;
  core::TenantSpec b;
  b.name = "b";
  b.weight = 3.0;
  for (int s = 0; s < net.num_satellites; ++s) {
    (s % 3 == 0 ? a : b).satellites.push_back(s);
  }
  opts.tenants = {a, b};

  constexpr std::uint32_t kPinned = 0x25e46aa6;
  for (const int threads : {1, 4}) {
    opts.parallel.num_threads = threads;
    const core::SimulationResult r =
        core::Session(sats, stations, &wx, opts).run_to_end();
    ASSERT_EQ(r.per_tenant.size(), 2u);
    // Before anything sorts r's samples in place.
    std::string bytes;
    for (const util::SampleSet* s :
         {&r.latency_minutes, &r.urgent_latency_minutes,
          &r.bulk_latency_minutes, &r.ack_delay_minutes,
          &r.cloud_latency_minutes, &r.per_tenant[0].latency_minutes,
          &r.per_tenant[1].latency_minutes}) {
      append_bits(&bytes, *s);
    }
    std::ostringstream summary;
    core::write_summary_json(summary, r);
    bytes += summary.str();
    // The scenario reaches every path it is meant to cover.
    EXPECT_GT(r.requeued_bytes, 0.0);
    EXPECT_GT(r.ack_retries, 0);
    EXPECT_FALSE(r.urgent_latency_minutes.empty());
    EXPECT_FALSE(r.ack_delay_minutes.empty());
    EXPECT_GT(r.latency_minutes.max(), 5.4321 * 60.0);
    EXPECT_GT(r.cloud_latency_minutes.max(), 5.4321 * 60.0);
    EXPECT_EQ(util::crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size()}),
              kPinned)
        << threads << " lanes";
  }
}

}  // namespace
