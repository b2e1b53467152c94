// Pinned summaries: the CRC32 of summary_json for two short weather-aware
// runs, per-instant and look-ahead under the storm fault profile, at one
// and four lanes.  Any change to a simulated output bit, an ulp drift in
// the weather or link layers included, fails here.  A change that is meant
// to alter outputs must recompute the pins and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/report.h"
#include "src/core/simulator.h"
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

  core::Simulator sim(sats, stations, &wx, opts);
  std::ostringstream out;
  core::write_summary_json(out, sim.run());
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

}  // namespace
