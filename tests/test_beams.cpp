// Beamforming end-to-end: the power-split penalty in visibility and the
// capacitated matching in the scheduler/simulator.
#include <gtest/gtest.h>

#include <map>

#include "src/core/session.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

groundseg::NetworkOptions small_net() {
  groundseg::NetworkOptions net;
  net.num_stations = 8;    // scarce => contention
  net.num_satellites = 25;
  net.seed = 47;
  return net;
}

TEST(Beams, SplitReducesPredictedRates) {
  const auto sats = groundseg::generate_constellation(small_net(), kT0);
  auto single = groundseg::generate_dgs_stations(small_net());
  auto multi = single;
  for (auto& gs : multi) gs.beam_count = 4;

  VisibilityEngine e1(sats, single, nullptr);
  VisibilityEngine e4(sats, multi, nullptr);
  int compared = 0;
  for (double m = 0.0; m < 360.0; m += 10.0) {
    const util::Epoch t = kT0.plus_seconds(m * 60.0);
    const auto a = e1.contacts(t);
    const auto b = e4.contacts(t);
    for (const auto& ea : a) {
      for (const auto& eb : b) {
        if (ea.sat == eb.sat && ea.station == eb.station) {
          EXPECT_LE(eb.predicted_rate_bps, ea.predicted_rate_bps + 1e-6);
          ++compared;
        }
      }
    }
    // The 4-beam graph can only lose edges (weaker per-beam link).
    EXPECT_LE(b.size(), a.size());
  }
  EXPECT_GT(compared, 10);
}

TEST(Beams, SchedulerServesUpToBeamCountPerStation) {
  const auto sats = groundseg::generate_constellation(small_net(), kT0);
  auto stations = groundseg::generate_dgs_stations(small_net());
  for (auto& gs : stations) gs.beam_count = 3;

  VisibilityEngine engine(sats, stations, nullptr);
  Scheduler sched(&engine, SchedulerConfig{});
  std::vector<OnboardQueue> queues(sats.size());
  for (auto& q : queues) q.generate(50e9, kT0.plus_seconds(-3600));

  bool saw_multi = false;
  for (double m = 0.0; m < 720.0; m += 5.0) {
    const auto assigned =
        sched.schedule_instant(kT0.plus_seconds(m * 60.0), queues);
    std::map<int, int> per_station;
    std::map<int, int> per_sat;
    for (const ContactEdge& e : assigned) {
      per_station[e.station] += 1;
      per_sat[e.sat] += 1;
    }
    for (const auto& [g, n] : per_station) {
      EXPECT_LE(n, 3) << "station " << g;
      if (n > 1) saw_multi = true;
    }
    for (const auto& [s, n] : per_sat) {
      EXPECT_EQ(n, 1) << "satellite " << s;
    }
  }
  EXPECT_TRUE(saw_multi) << "contention should exercise multiple beams";
}

TEST(Beams, SimulatorServesMoreSatellitesUnderContention) {
  const auto sats = groundseg::generate_constellation(small_net(), kT0);
  auto single = groundseg::generate_dgs_stations(small_net());
  auto multi = single;
  for (auto& gs : multi) gs.beam_count = 3;

  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 8.0;
  const SimulationResult r1 =
      Session(sats, single, nullptr, opts).run_to_end();
  const SimulationResult r3 =
      Session(sats, multi, nullptr, opts).run_to_end();
  // More simultaneous service slots were used...
  EXPECT_GT(r3.assignments, r1.assignments);
  // ...and the system keeps functioning: whether the extra slots beat the
  // 4.8 dB per-beam penalty is parameter-dependent (see bench E12), so
  // only assert the trade stays bounded.
  EXPECT_GT(r3.total_delivered_bytes, r1.total_delivered_bytes * 0.7);
  EXPECT_LT(r3.latency_minutes.median(),
            r1.latency_minutes.median() * 2.0);
}

TEST(Beams, OptimalMatcherHandlesCapacitiesViaDuplication) {
  const auto sats = groundseg::generate_constellation(small_net(), kT0);
  auto stations = groundseg::generate_dgs_stations(small_net());
  for (auto& gs : stations) gs.beam_count = 2;

  VisibilityEngine engine(sats, stations, nullptr);
  SchedulerConfig cfg;
  cfg.matcher = MatcherKind::kOptimal;
  Scheduler sched(&engine, cfg);
  std::vector<OnboardQueue> queues(sats.size());
  for (auto& q : queues) q.generate(50e9, kT0.plus_seconds(-3600));

  for (double m = 0.0; m < 240.0; m += 20.0) {
    const auto assigned =
        sched.schedule_instant(kT0.plus_seconds(m * 60.0), queues);
    std::map<int, int> per_station;
    for (const ContactEdge& e : assigned) per_station[e.station] += 1;
    for (const auto& [g, n] : per_station) EXPECT_LE(n, 2);
  }
}

}  // namespace
}  // namespace dgs::core
