// Fault subsystem unit tests (DESIGN.md §11): timeline determinism,
// half-open step-boundary semantics, ack-relay backoff, the validated
// SimulationOptions API, and the deprecated-outages shim equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/fault_plan.h"
#include "src/faults/profiles.h"
#include "src/groundseg/network_gen.h"

namespace dgs::faults {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

// ---------------------------------------------------------------------
// Step-grid boundary semantics.

TEST(StepAtOrAfter, ExactBoundariesSnapNotCeil) {
  // 2.0 h at dt = 60 s is exactly step 120; float dust in the product
  // (2.0 * 3600 / 60 may not be an exact 120.0 on every libm) must not
  // push it to 121.
  EXPECT_EQ(step_at_or_after(2.0, 60.0), 120);
  EXPECT_EQ(step_at_or_after(0.0, 60.0), 0);
  // One third of an hour at dt = 120 s: 1200 s / 120 s = step 10.
  EXPECT_EQ(step_at_or_after(1.0 / 3.0, 120.0), 10);
}

TEST(StepAtOrAfter, MidStepTimesRoundUp) {
  // 90 s into the run at dt = 60 s: the first step starting at-or-after
  // is step 2 (step 1 starts at 60 s, before the instant).
  EXPECT_EQ(step_at_or_after(90.0 / 3600.0, 60.0), 2);
  EXPECT_EQ(step_at_or_after(1.0 / 3600.0, 60.0), 1);
}

TEST(FaultTimeline, OutageWindowIsHalfOpenOnTheStepGrid) {
  // Window [1, 2) h at dt = 60 s: steps 60..119 are blanked; step 120
  // (whose start is exactly the window end) is NOT blanked, and step 59
  // (ending exactly at the window start) is not blanked either.
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{3, 1.0, 2.0});
  FaultTimeline tl(plan, 8, 240, 60.0);
  EXPECT_FALSE(tl.station_down(3, 59));
  EXPECT_TRUE(tl.station_down(3, 60));
  EXPECT_TRUE(tl.station_down(3, 119));
  EXPECT_FALSE(tl.station_down(3, 120));
  EXPECT_FALSE(tl.station_down(2, 90));  // other stations untouched
}

TEST(FaultTimeline, AdjacentAndOverlappingWindowsMerge) {
  FaultPlan plan;
  plan.outages.push_back(OutageWindow{0, 2.0, 3.0});
  plan.outages.push_back(OutageWindow{0, 1.0, 2.5});
  plan.outages.push_back(OutageWindow{0, 5.0, 4.0});  // empty after clip
  FaultTimeline tl(plan, 2, 6 * 60, 60.0);
  ASSERT_EQ(tl.down_intervals()[0].size(), 1u);
  EXPECT_EQ(tl.down_intervals()[0][0].begin, 60);
  EXPECT_EQ(tl.down_intervals()[0][0].end, 180);
  EXPECT_TRUE(tl.down_intervals()[1].empty());
}

TEST(FaultTimeline, FillStationDownMatchesPointQueries) {
  FaultPlan plan;
  plan.seed = 9;
  plan.outages.push_back(OutageWindow{1, 0.5, 1.5});
  plan.churn.mtbf_hours = 2.0;
  plan.churn.mttr_hours = 0.5;
  FaultTimeline tl(plan, 5, 12 * 60, 60.0);
  std::vector<char> mask;
  for (std::int64_t k = 0; k < 12 * 60; k += 7) {
    tl.fill_station_down(k, &mask);
    ASSERT_EQ(mask.size(), 5u);
    for (int g = 0; g < 5; ++g) {
      EXPECT_EQ(mask[g] != 0, tl.station_down(g, k))
          << "station " << g << " step " << k;
    }
  }
}

// ---------------------------------------------------------------------
// Determinism of the stochastic draws.

TEST(FaultTimeline, ChurnIsReproducibleForFixedSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.churn.mtbf_hours = 6.0;
  plan.churn.mttr_hours = 1.0;
  const FaultTimeline a(plan, 20, 24 * 60, 60.0);
  const FaultTimeline b(plan, 20, 24 * 60, 60.0);
  ASSERT_EQ(a.down_intervals().size(), b.down_intervals().size());
  bool any_down = false;
  for (std::size_t g = 0; g < a.down_intervals().size(); ++g) {
    const auto& ia = a.down_intervals()[g];
    const auto& ib = b.down_intervals()[g];
    ASSERT_EQ(ia.size(), ib.size()) << "station " << g;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i].begin, ib[i].begin);
      EXPECT_EQ(ia[i].end, ib[i].end);
      // Intervals are sorted, disjoint, and on-grid.
      EXPECT_LT(ia[i].begin, ia[i].end);
      EXPECT_LE(ia[i].end, 24 * 60);
      if (i > 0) {
        EXPECT_GT(ia[i].begin, ia[i - 1].end);
      }
      any_down = true;
    }
  }
  // 24 h at MTBF 6 h: essentially impossible that no station failed.
  EXPECT_TRUE(any_down);

  plan.seed = 43;
  const FaultTimeline c(plan, 20, 24 * 60, 60.0);
  bool differs = false;
  for (std::size_t g = 0; g < a.down_intervals().size() && !differs; ++g) {
    const auto& ia = a.down_intervals()[g];
    const auto& ic = c.down_intervals()[g];
    if (ia.size() != ic.size()) {
      differs = true;
      break;
    }
    for (std::size_t i = 0; i < ia.size(); ++i) {
      if (ia[i].begin != ic[i].begin || ia[i].end != ic[i].end) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs) << "changing the seed must change the churn";
}

TEST(FaultTimeline, ChurnFractionZeroDisablesAllStations) {
  FaultPlan plan;
  plan.seed = 7;
  plan.churn.mtbf_hours = 1.0;
  plan.churn.mttr_hours = 1.0;
  plan.churn.station_fraction = 0.0;
  const FaultTimeline tl(plan, 10, 24 * 60, 60.0);
  for (const auto& iv : tl.down_intervals()) EXPECT_TRUE(iv.empty());
}

TEST(FaultTimeline, AckRelayOutcomeIsStatelessAndCapped) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.ack_relay.loss_probability = 0.9;
  plan.ack_relay.initial_backoff_s = 10.0;
  plan.ack_relay.backoff_multiplier = 2.0;
  plan.ack_relay.max_backoff_s = 40.0;
  plan.ack_relay.max_attempts = 6;
  const FaultTimeline tl(plan, 4, 100, 60.0);

  bool any_retry = false;
  for (std::int64_t step = 0; step < 100; step += 3) {
    for (int sat = 0; sat < 3; ++sat) {
      const AckRelayOutcome o1 = tl.ack_relay_outcome(step, sat, 2);
      const AckRelayOutcome o2 = tl.ack_relay_outcome(step, sat, 2);
      EXPECT_EQ(o1.retries, o2.retries);
      EXPECT_EQ(o1.delay_s, o2.delay_s);
      EXPECT_LE(o1.retries, 6);
      if (o1.retries > 0) any_retry = true;
      // Backoff schedule 10, 20, 40, 40, ... capped at max_backoff_s.
      double expect_delay = 0.0, backoff = 10.0;
      for (int r = 0; r < o1.retries; ++r) {
        expect_delay += std::min(backoff, 40.0);
        backoff *= 2.0;
      }
      EXPECT_DOUBLE_EQ(o1.delay_s, expect_delay);
    }
  }
  EXPECT_TRUE(any_retry) << "p=0.9 must lose some attempts";

  FaultPlan clean = plan;
  clean.ack_relay.loss_probability = 0.0;
  const FaultTimeline tl0(clean, 4, 100, 60.0);
  const AckRelayOutcome o = tl0.ack_relay_outcome(50, 1, 2);
  EXPECT_EQ(o.retries, 0);
  EXPECT_EQ(o.delay_s, 0.0);
}

TEST(FaultTimeline, PlanUploadDrawsAreStatelessAndSeedDependent) {
  FaultPlan plan;
  plan.seed = 5;
  plan.plan_upload.failure_probability = 0.3;
  const FaultTimeline tl(plan, 4, 2000, 60.0);
  int failures = 0;
  for (std::int64_t step = 0; step < 2000; ++step) {
    const bool f = tl.plan_upload_fails(step, 0, 1);
    EXPECT_EQ(f, tl.plan_upload_fails(step, 0, 1));
    if (f) ++failures;
  }
  // ~600 expected; a generous band catches a broken hash, not variance.
  EXPECT_GT(failures, 400);
  EXPECT_LT(failures, 800);

  plan.seed = 6;
  const FaultTimeline tl2(plan, 4, 2000, 60.0);
  int agree = 0;
  for (std::int64_t step = 0; step < 2000; ++step) {
    if (tl.plan_upload_fails(step, 0, 1) == tl2.plan_upload_fails(step, 0, 1))
      ++agree;
  }
  EXPECT_LT(agree, 2000) << "changing the seed must change the draws";
}

TEST(FaultTimeline, BackhaulMultiplierTakesTheMinimumOverWindows) {
  FaultPlan plan;
  plan.backhaul.push_back(BackhaulFault{0, 1.0, 3.0, 0.5});
  plan.backhaul.push_back(BackhaulFault{0, 2.0, 4.0, 0.0});
  const FaultTimeline tl(plan, 2, 5 * 60, 60.0);
  EXPECT_EQ(tl.backhaul_multiplier(0, 30), 1.0);    // before
  EXPECT_EQ(tl.backhaul_multiplier(0, 90), 0.5);    // first window only
  EXPECT_EQ(tl.backhaul_multiplier(0, 150), 0.0);   // overlap -> min
  EXPECT_EQ(tl.backhaul_multiplier(0, 210), 0.0);   // second window only
  EXPECT_EQ(tl.backhaul_multiplier(0, 240), 1.0);   // half-open end
  EXPECT_EQ(tl.backhaul_multiplier(1, 150), 1.0);   // other station
}

// ---------------------------------------------------------------------
// Profiles.

TEST(Profiles, KnownNamesBuildAndUnknownThrows) {
  EXPECT_TRUE(make_profile("none", 1, 30).empty());
  EXPECT_TRUE(make_profile("churn", 1, 30).has_station_faults());
  const FaultPlan flaky = make_profile("flaky-net", 1, 30);
  EXPECT_TRUE(flaky.has_ack_relay_faults());
  EXPECT_TRUE(flaky.has_plan_upload_faults());
  EXPECT_TRUE(make_profile("brownout", 1, 30).has_backhaul_faults());
  const FaultPlan storm = make_profile("storm", 1, 30);
  EXPECT_TRUE(storm.has_station_faults());
  EXPECT_TRUE(storm.has_backhaul_faults());
  EXPECT_TRUE(storm.has_ack_relay_faults());
  EXPECT_THROW(make_profile("meteor", 1, 30), std::invalid_argument);
  EXPECT_NE(std::string(profile_names()).find("storm"), std::string::npos);
}

TEST(Profiles, BrownoutIsDeterministicPerSeed) {
  const FaultPlan a = make_profile("brownout", 17, 40);
  const FaultPlan b = make_profile("brownout", 17, 40);
  ASSERT_EQ(a.backhaul.size(), b.backhaul.size());
  EXPECT_FALSE(a.backhaul.empty());
  for (std::size_t i = 0; i < a.backhaul.size(); ++i) {
    EXPECT_EQ(a.backhaul[i].station_index, b.backhaul[i].station_index);
    EXPECT_EQ(a.backhaul[i].start_hours, b.backhaul[i].start_hours);
    EXPECT_EQ(a.backhaul[i].end_hours, b.backhaul[i].end_hours);
    EXPECT_EQ(a.backhaul[i].rate_multiplier, b.backhaul[i].rate_multiplier);
  }
}

}  // namespace
}  // namespace dgs::faults

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

// ---------------------------------------------------------------------
// SimulationOptions::validate(): structured errors with field names.

TEST(OptionsValidate, ReportsTheOffendingField) {
  SimulationOptions opts;
  opts.start = kT0;
  EXPECT_FALSE(opts.validate().has_value());

  opts.duration_hours = 0.0;
  auto e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "duration_hours");
  opts.duration_hours = 24.0;

  opts.lookahead_hours = -1.0;
  e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "lookahead_hours");
  opts.lookahead_hours = 0.0;

  opts.faults.outages.push_back(faults::OutageWindow{12, 0.0, 1.0});
  EXPECT_FALSE(opts.validate().has_value()) << "no station count, no check";
  e = opts.validate(/*num_stations=*/5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.outages[0].station_index");
  opts.faults.outages.clear();

  opts.faults.outages.push_back(faults::OutageWindow{0, 3.0, 1.0});
  e = opts.validate(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.outages[0].end_hours");
  opts.faults.outages.clear();

  opts.faults.ack_relay.loss_probability = 1.0;
  e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.ack_relay.loss_probability");
  opts.faults.ack_relay.loss_probability = 0.0;

  opts.faults.churn.mtbf_hours = 2.0;
  opts.faults.churn.mttr_hours = 0.0;
  e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.churn.mttr_hours");
  opts.faults.churn = faults::StationChurn{};

  opts.faults.backhaul.push_back(faults::BackhaulFault{0, 0.0, 1.0, 0.5});
  e = opts.validate(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.backhaul");  // needs station_backhaul_bps
  opts.station_backhaul_bps = 50e6;
  EXPECT_FALSE(opts.validate(5).has_value());
  opts.faults.backhaul[0].rate_multiplier = 2.0;
  e = opts.validate(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.backhaul[0].rate_multiplier");
}

// Every walked real must be finite, whatever its bound; NaN and +-inf
// used to pass every `x < 0` style check.
TEST(OptionsValidate, RejectsNonFiniteReals) {
  const double inf = std::numeric_limits<double>::infinity();
  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = inf;
  auto e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "duration_hours");
  EXPECT_EQ(e->message, "must be finite (got inf)");
  opts.duration_hours = 24.0;

  opts.initial_backlog_age_hours = -inf;
  e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "initial_backlog_age_hours");
  opts.initial_backlog_age_hours = 12.0;

  opts.faults.outages.push_back(
      faults::OutageWindow{0, std::numeric_limits<double>::quiet_NaN(), 1.0});
  e = opts.validate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->field, "faults.outages[0].start_hours");
}

// The horizon must round to at least one step, and to few enough steps
// to count: 3.6 s of 60 s steps ran no step and then failed on an empty
// sample set.
TEST(OptionsValidate, RejectsAHorizonWithNoStepOrTooMany) {
  SimulationOptions opts;
  opts.start = kT0;
  for (const double hours : {0.001, 1e300}) {
    opts.duration_hours = hours;
    const auto e = opts.validate();
    ASSERT_TRUE(e.has_value()) << hours;
    EXPECT_EQ(e->field, "duration_hours");
    EXPECT_NE(e->message.find("steps of 60 s"), std::string::npos)
        << e->message;
  }
  opts.duration_hours = 0.01;  // 0.6 steps round to one.
  EXPECT_FALSE(opts.validate().has_value());
  opts.duration_hours = 24.0;
  opts.step_seconds = 1e-3;  // 86.4 million steps.
  EXPECT_FALSE(opts.validate().has_value());
}

TEST(OptionsValidate, ConstructorThrowsWithFieldInMessage) {
  groundseg::NetworkOptions net;
  net.num_satellites = 2;
  net.num_stations = 3;
  net.seed = 1;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);

  SimulationOptions opts;
  opts.start = kT0;
  opts.step_seconds = 0.0;
  try {
    Session sim(sats, stations, nullptr, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("SimulationOptions.step_seconds"),
              std::string::npos)
        << ex.what();
  }

  // The constructor sees the real station count, so fault-plan station
  // indices are range-checked at construction too.
  opts.step_seconds = 60.0;
  opts.faults.outages.push_back(faults::OutageWindow{99, 0.0, 1.0});
  EXPECT_THROW(Session(sats, stations, nullptr, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace dgs::core
