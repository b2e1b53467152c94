// Scheduler: weighting, matching constraints, value-function behaviour.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "src/core/scheduler.h"

namespace dgs::core {
namespace {

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr double kGb = 1e9;

groundseg::NetworkOptions small_opts() {
  groundseg::NetworkOptions opts;
  opts.num_stations = 20;
  opts.num_satellites = 10;
  opts.seed = 11;
  return opts;
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : sats_(groundseg::generate_constellation(small_opts(), kEpoch)),
        stations_(groundseg::generate_dgs_stations(small_opts())),
        engine_(sats_, stations_, nullptr) {}

  std::vector<OnboardQueue> loaded_queues(double gb_each) const {
    std::vector<OnboardQueue> queues(sats_.size());
    for (auto& q : queues) q.generate(gb_each * kGb, kEpoch);
    return queues;
  }

  /// First instant within `hours` at which at least `min_edges` edges exist.
  util::Epoch busy_instant(int min_edges, double hours) const {
    for (double m = 0.0; m < hours * 60.0; m += 1.0) {
      const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
      if (static_cast<int>(engine_.contacts(t).size()) >= min_edges) return t;
    }
    return kEpoch;
  }

  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
  VisibilityEngine engine_;
};

TEST_F(SchedulerTest, RejectsBadConstruction) {
  EXPECT_THROW(Scheduler(nullptr, SchedulerConfig{}), std::invalid_argument);
  SchedulerConfig bad;
  bad.quantum_seconds = 0.0;
  EXPECT_THROW(Scheduler(&engine_, bad), std::invalid_argument);
}

TEST_F(SchedulerTest, RejectsWrongQueueCount) {
  Scheduler sched(&engine_, SchedulerConfig{});
  std::vector<OnboardQueue> wrong(3);
  EXPECT_THROW(sched.schedule_instant(kEpoch, wrong), std::invalid_argument);
}

TEST_F(SchedulerTest, AssignmentsAreAMatching) {
  Scheduler sched(&engine_, SchedulerConfig{});
  const auto queues = loaded_queues(10.0);
  for (double m = 0.0; m < 360.0; m += 15.0) {
    const auto assigned =
        sched.schedule_instant(kEpoch.plus_seconds(m * 60.0), queues);
    std::set<int> sats, stations;
    for (const ContactEdge& e : assigned) {
      EXPECT_TRUE(sats.insert(e.sat).second) << "satellite double-booked";
      EXPECT_TRUE(stations.insert(e.station).second)
          << "station double-booked";
      EXPECT_GT(e.weight, 0.0);
      EXPECT_GT(e.predicted_rate_bps, 0.0);
    }
  }
}

TEST_F(SchedulerTest, EmptyQueuesYieldNoAssignments) {
  Scheduler sched(&engine_, SchedulerConfig{});
  std::vector<OnboardQueue> empty(sats_.size());
  const util::Epoch t = busy_instant(1, 6.0);
  EXPECT_TRUE(sched.schedule_instant(t, empty).empty());
}

TEST_F(SchedulerTest, OnlySatellitesWithDataAreScheduled) {
  Scheduler sched(&engine_, SchedulerConfig{});
  std::vector<OnboardQueue> queues(sats_.size());
  queues[2].generate(5.0 * kGb, kEpoch);  // only satellite 2 has data
  for (double m = 0.0; m < 720.0; m += 5.0) {
    for (const ContactEdge& e :
         sched.schedule_instant(kEpoch.plus_seconds(m * 60.0), queues)) {
      EXPECT_EQ(e.sat, 2);
    }
  }
}

TEST_F(SchedulerTest, LatencyValuePrefersOlderData) {
  // Find an instant where two satellites compete for one station, give one
  // of them much older data, and check it wins under the latency value.
  SchedulerConfig cfg;
  cfg.value = ValueKind::kLatency;
  Scheduler sched(&engine_, cfg);

  for (double m = 0.0; m < 24.0 * 60.0; m += 2.0) {
    const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
    const auto edges = engine_.contacts(t);
    // Look for a station with >= 2 candidate satellites.
    for (const auto& a : edges) {
      for (const auto& b : edges) {
        if (a.station != b.station || a.sat == b.sat) continue;
        std::vector<OnboardQueue> queues(sats_.size());
        queues[a.sat].generate(1.0 * kGb, t.plus_seconds(-7200));  // old
        queues[b.sat].generate(1.0 * kGb, t.plus_seconds(-60));    // fresh
        const auto assigned = sched.schedule_instant(t, queues);
        for (const ContactEdge& e : assigned) {
          if (e.station == a.station) {
            EXPECT_EQ(e.sat, a.sat) << "older data should win the station";
            return;  // one conclusive instance is enough
          }
        }
      }
    }
  }
  GTEST_SKIP() << "no contention instant found in the window";
}

TEST_F(SchedulerTest, ThroughputValueIgnoresAge) {
  SchedulerConfig cfg;
  cfg.value = ValueKind::kThroughput;
  Scheduler sched(&engine_, cfg);
  const util::Epoch t = busy_instant(1, 12.0);
  const auto edges = engine_.contacts(t);
  if (edges.empty()) GTEST_SKIP() << "no visibility in window";

  std::vector<OnboardQueue> young(sats_.size()), old(sats_.size());
  for (std::size_t s = 0; s < sats_.size(); ++s) {
    young[s].generate(5.0 * kGb, t.plus_seconds(-60));
    old[s].generate(5.0 * kGb, t.plus_seconds(-36000));
  }
  const auto a = sched.schedule_instant(t, young);
  const auto b = sched.schedule_instant(t, old);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sat, b[i].sat);
    EXPECT_EQ(a[i].station, b[i].station);
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
  }
}

TEST_F(SchedulerTest, MatcherKindIsHonored) {
  // All three matchers must produce a valid matching; the optimal one
  // yields at least the stable/greedy total weight.
  const auto queues = loaded_queues(50.0);
  const util::Epoch t = busy_instant(3, 24.0);

  double values[3] = {0, 0, 0};
  const MatcherKind kinds[] = {MatcherKind::kStable, MatcherKind::kOptimal,
                               MatcherKind::kGreedy};
  for (int k = 0; k < 3; ++k) {
    SchedulerConfig cfg;
    cfg.matcher = kinds[k];
    Scheduler sched(&engine_, cfg);
    for (const ContactEdge& e : sched.schedule_instant(t, queues)) {
      values[k] += e.weight;
    }
  }
  EXPECT_GE(values[1], values[0] - 1e-9);  // optimal >= stable
  EXPECT_GE(values[1], values[2] - 1e-9);  // optimal >= greedy
}

// The value_scale table multiplies each edge's Phi value by its
// (satellite, station) entry, bit for bit, and a table of the wrong shape
// is refused at construction.
TEST_F(SchedulerTest, ValueScaleMultipliesEachEdgeAfterPhi) {
  const auto queues = loaded_queues(50.0);
  const std::size_t num_stations = stations_.size();
  std::vector<double> table(sats_.size() * num_stations);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = 0.5 + 0.25 * static_cast<double>(i % 7);
  }
  SchedulerConfig cfg;
  cfg.value_scale = &table;
  const Scheduler sched(&engine_, cfg);
  int checked = 0;
  for (double m = 0.0; m < 360.0; m += 15.0) {
    const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
    for (const ContactEdge& e : sched.schedule_instant(t, queues)) {
      const double base = sched.value_function().edge_value(
          queues[e.sat], t,
          e.predicted_rate_bps * cfg.quantum_seconds / 8.0);
      const auto sat = static_cast<std::size_t>(e.sat);
      const auto station = static_cast<std::size_t>(e.station);
      EXPECT_EQ(e.weight, base * table[sat * num_stations + station]);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);

  std::vector<double> short_table(table.size() - 1, 1.0);
  cfg.value_scale = &short_table;
  EXPECT_THROW(Scheduler(&engine_, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace dgs::core
