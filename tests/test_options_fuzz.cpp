// Property test for SimulationOptions::validate() (satellite of the
// campaign PR): ~200 seeded random corruptions of a valid option set.
// Properties checked for every corruption:
//   1. every OptionsError.field names a real field (a fixed registry of
//      known names, with [N] indices normalized),
//   2. clamping exactly the named field and re-validating converges to
//      nullopt in a bounded number of rounds — i.e. validate() never
//      blames an innocent field and never reports a phantom constraint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/core/simulator.h"
#include "src/faults/fault_rng.h"

namespace dgs::core {
namespace {

constexpr int kNumStations = 10;
constexpr int kMaxRepairRounds = 32;

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

SimulationOptions valid_baseline() {
  SimulationOptions o;
  o.start = kT0;
  o.duration_hours = 6.0;
  o.step_seconds = 60.0;
  return o;
}

/// Every field name validate() may legitimately report, with bracketed
/// indices normalized to [*].  A name outside this set is a test failure:
/// either validate() invented a field or a rename went unmirrored here.
const std::set<std::string>& known_fields() {
  static const std::set<std::string> kFields = {
      "duration_hours",
      "step_seconds",
      "lookahead_hours",
      "urgent_fraction",
      "urgent_priority",
      "initial_backlog_bytes",
      "station_backhaul_bps",
      "slew_seconds",
      "parallel.num_threads",
      "parallel.chunk_size",
      "faults.outages[*].station_index",
      "faults.outages[*].end_hours",
      "faults.churn.mtbf_hours",
      "faults.churn.mttr_hours",
      "faults.churn.station_fraction",
      "faults.backhaul",
      "faults.backhaul[*].station_index",
      "faults.backhaul[*].end_hours",
      "faults.backhaul[*].rate_multiplier",
      "faults.ack_relay.loss_probability",
      "faults.ack_relay.initial_backoff_s",
      "faults.ack_relay.backoff_multiplier",
      "faults.ack_relay.max_backoff_s",
      "faults.ack_relay.max_attempts",
      "faults.plan_upload.failure_probability",
      "tenants",
      "tenants[*].name",
      "tenants[*].weight",
      "tenants[*].sla_latency_minutes",
      "tenants[*].satellites",
      "tenants[*].satellites[*]",
      "value_scale",
      "value_scale[*]",
  };
  return kFields;
}

/// "faults.backhaul[3].end_hours" -> "faults.backhaul[*].end_hours".
std::string normalize(const std::string& field) {
  std::string out;
  for (std::size_t i = 0; i < field.size(); ++i) {
    out += field[i];
    if (field[i] == '[') {
      out += '*';
      while (i + 1 < field.size() && field[i + 1] != ']') ++i;
    }
  }
  return out;
}

/// Index inside the first [N] of a field path, or -1.
int bracket_index(const std::string& field) {
  const std::size_t open = field.find('[');
  if (open == std::string::npos) return -1;
  return std::atoi(field.c_str() + open + 1);
}

/// Clamps exactly the named field to a valid value.  Returns false for an
/// unknown name (the property-violation case).
bool repair(SimulationOptions& o, const std::string& field) {
  const std::string norm = normalize(field);
  const int i = bracket_index(field);
  if (norm == "duration_hours") {
    o.duration_hours = 6.0;
  } else if (norm == "step_seconds") {
    o.step_seconds = 60.0;
  } else if (norm == "lookahead_hours") {
    o.lookahead_hours = 0.0;
  } else if (norm == "urgent_fraction") {
    o.urgent_fraction = 0.5;
  } else if (norm == "urgent_priority") {
    o.urgent_priority = 8.0;
  } else if (norm == "initial_backlog_bytes") {
    o.initial_backlog_bytes = 0.0;
  } else if (norm == "station_backhaul_bps") {
    o.station_backhaul_bps = 50e6;
  } else if (norm == "slew_seconds") {
    o.slew_seconds = 0.0;
  } else if (norm == "parallel.num_threads") {
    o.parallel.num_threads = 1;
  } else if (norm == "parallel.chunk_size") {
    o.parallel.chunk_size = 64;
  } else if (norm == "faults.outages[*].station_index") {
    o.faults.outages.at(static_cast<std::size_t>(i)).station_index = 0;
  } else if (norm == "faults.outages[*].end_hours") {
    auto& w = o.faults.outages.at(static_cast<std::size_t>(i));
    w.end_hours = w.start_hours + 1.0;
  } else if (norm == "faults.churn.mtbf_hours") {
    o.faults.churn.mtbf_hours = 0.0;
  } else if (norm == "faults.churn.mttr_hours") {
    o.faults.churn.mttr_hours = 1.0;
  } else if (norm == "faults.churn.station_fraction") {
    o.faults.churn.station_fraction = 1.0;
  } else if (norm == "faults.backhaul") {
    o.faults.backhaul.clear();
  } else if (norm == "faults.backhaul[*].station_index") {
    o.faults.backhaul.at(static_cast<std::size_t>(i)).station_index = 0;
  } else if (norm == "faults.backhaul[*].end_hours") {
    auto& f = o.faults.backhaul.at(static_cast<std::size_t>(i));
    f.end_hours = f.start_hours + 1.0;
  } else if (norm == "faults.backhaul[*].rate_multiplier") {
    o.faults.backhaul.at(static_cast<std::size_t>(i)).rate_multiplier =
        0.5;
  } else if (norm == "faults.ack_relay.loss_probability") {
    o.faults.ack_relay.loss_probability = 0.0;
  } else if (norm == "faults.ack_relay.initial_backoff_s") {
    o.faults.ack_relay.initial_backoff_s = 60.0;
  } else if (norm == "faults.ack_relay.backoff_multiplier") {
    o.faults.ack_relay.backoff_multiplier = 2.0;
  } else if (norm == "faults.ack_relay.max_backoff_s") {
    o.faults.ack_relay.max_backoff_s =
        std::max(1800.0, o.faults.ack_relay.initial_backoff_s);
  } else if (norm == "faults.ack_relay.max_attempts") {
    o.faults.ack_relay.max_attempts = 16;
  } else if (norm == "faults.plan_upload.failure_probability") {
    o.faults.plan_upload.failure_probability = 0.0;
  } else if (norm == "tenants") {
    o.tenants.clear();
  } else if (norm == "tenants[*].name") {
    o.tenants.at(static_cast<std::size_t>(i)).name =
        "t" + std::to_string(i);
  } else if (norm == "tenants[*].weight") {
    o.tenants.at(static_cast<std::size_t>(i)).weight = 1.0;
  } else if (norm == "tenants[*].sla_latency_minutes") {
    o.tenants.at(static_cast<std::size_t>(i)).sla_latency_minutes = 0.0;
  } else if (norm == "tenants[*].satellites") {
    o.tenants.at(static_cast<std::size_t>(i)).satellites = {100 + i};
  } else if (norm == "tenants[*].satellites[*]") {
    o.tenants.at(static_cast<std::size_t>(i)).satellites = {200 + i};
  } else if (norm == "value_scale") {
    o.value_scale.clear();
  } else if (norm == "value_scale[*]") {
    o.value_scale.at(static_cast<std::size_t>(i)) = 1.0;
  } else {
    return false;
  }
  return true;
}

/// One corruption: a targeted way to make the options invalid.  Several
/// may be applied to the same option set in one fuzz iteration.
using Corruption = std::function<void(SimulationOptions&, faults::Pcg32&)>;

double bad_negative(faults::Pcg32& rng) {
  return -(rng.uniform() * 100.0 + 0.001);
}

const std::vector<Corruption>& corruptions() {
  static const std::vector<Corruption> kTable = {
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.duration_hours = rng.next() % 2 == 0 ? 0.0 : bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.step_seconds = rng.next() % 2 == 0 ? 0.0 : bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.lookahead_hours = bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.urgent_fraction =
            rng.next() % 2 == 0 ? 1.0 + rng.uniform() : bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.urgent_fraction = 0.5;
        o.urgent_priority = rng.next() % 2 == 0 ? 0.0 : bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.initial_backlog_bytes = bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.station_backhaul_bps = bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.slew_seconds = bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.parallel.num_threads = -1 - static_cast<int>(rng.next() % 8);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.parallel.chunk_size = -static_cast<int>(rng.next() % 2);
      },
      [](SimulationOptions& o, faults::Pcg32&) {
        // Invalid tenant name (uppercase + punctuation).  The satellite
        // slice is keyed off the current tenant count so repeated
        // applications stay disjoint and the *name* is the one error.
        TenantSpec t;
        t.name = "Tenant!" + std::to_string(o.tenants.size());
        t.satellites = {static_cast<int>(o.tenants.size())};
        o.tenants.push_back(std::move(t));
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        TenantSpec t;
        t.name = "badweight" + std::to_string(o.tenants.size());
        t.satellites = {static_cast<int>(o.tenants.size())};
        t.weight = rng.next() % 2 == 0 ? 0.0 : bad_negative(rng);
        o.tenants.push_back(std::move(t));
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        // A non-finite or non-positive bid multiplier.
        const double bad[] = {0.0, -1.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()};
        o.value_scale.push_back(bad[rng.next() % 4]);
      },
      [](SimulationOptions& o, faults::Pcg32&) {
        // A valid table under look-ahead: the whole-field error.
        o.value_scale.push_back(2.0);
        o.lookahead_hours = 1.0;
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.outages.push_back(
            {-1 - static_cast<int>(rng.next() % 3), 1.0, 2.0});
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.outages.push_back({0, 3.0, 3.0 - rng.uniform() - 0.001});
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.churn.mtbf_hours = bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32&) {
        o.faults.churn.mtbf_hours = 12.0;
        o.faults.churn.mttr_hours = 0.0;
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.churn.station_fraction = 1.0 + rng.uniform() + 0.001;
      },
      [](SimulationOptions& o, faults::Pcg32&) {
        // Backhaul fault with no backhaul model: the whole-field error.
        o.station_backhaul_bps = 0.0;
        o.faults.backhaul.push_back({0, 1.0, 2.0, 0.5});
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.station_backhaul_bps = 50e6;
        o.faults.backhaul.push_back({0, 1.0, 2.0, 1.0 + rng.uniform()});
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.station_backhaul_bps = 50e6;
        o.faults.backhaul.push_back(
            {kNumStations + static_cast<int>(rng.next() % 5), 1.0, 2.0,
             0.5});
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.ack_relay.loss_probability =
            rng.next() % 2 == 0 ? 1.0 + rng.uniform() : bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.ack_relay.loss_probability = 0.5;
        o.faults.ack_relay.initial_backoff_s =
            rng.next() % 2 == 0 ? 0.0 : bad_negative(rng);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.ack_relay.loss_probability = 0.5;
        o.faults.ack_relay.backoff_multiplier = rng.uniform();
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.ack_relay.loss_probability = 0.5;
        o.faults.ack_relay.max_backoff_s =
            o.faults.ack_relay.initial_backoff_s * rng.uniform() - 1.0;
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.ack_relay.loss_probability = 0.5;
        o.faults.ack_relay.max_attempts = -static_cast<int>(rng.next() % 2);
      },
      [](SimulationOptions& o, faults::Pcg32& rng) {
        o.faults.plan_upload.failure_probability = 1.0 + rng.uniform();
      },
  };
  return kTable;
}

TEST(OptionsFuzz, BaselineIsValid) {
  EXPECT_FALSE(valid_baseline().validate(kNumStations).has_value());
}

// Deterministic coverage: each corruption, applied alone, must produce
// an error naming a registry field with a non-empty message.
TEST(OptionsFuzz, EveryCorruptionNamesAKnownField) {
  for (std::size_t c = 0; c < corruptions().size(); ++c) {
    faults::Pcg32 rng(1000 + c);
    SimulationOptions o = valid_baseline();
    corruptions()[c](o, rng);
    const auto e = o.validate(kNumStations);
    ASSERT_TRUE(e.has_value()) << "corruption " << c << " was a no-op";
    EXPECT_TRUE(known_fields().count(normalize(e->field)))
        << "corruption " << c << " named unknown field: " << e->field;
    EXPECT_FALSE(e->message.empty()) << e->field;
  }
}

// The fuzz property: random 1-3 corruption combos; every reported field
// is known; repairing exactly the named field converges.
TEST(OptionsFuzz, RandomCorruptionsAreRepairableByNamedField) {
  faults::Pcg32 rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    SimulationOptions o = valid_baseline();
    const int n = 1 + static_cast<int>(rng.next() % 3);
    for (int k = 0; k < n; ++k) {
      corruptions()[rng.next() % corruptions().size()](o, rng);
    }
    int rounds = 0;
    while (const auto e = o.validate(kNumStations)) {
      ASSERT_LT(rounds++, kMaxRepairRounds)
          << "iter " << iter << " did not converge; last field " << e->field;
      ASSERT_TRUE(known_fields().count(normalize(e->field)))
          << "iter " << iter << " unknown field: " << e->field;
      ASSERT_FALSE(e->message.empty()) << e->field;
      ASSERT_TRUE(repair(o, e->field))
          << "iter " << iter << " unrepairable field: " << e->field;
    }
    EXPECT_FALSE(o.validate(kNumStations).has_value());
  }
}

// Out-of-range station indices are only a constraint when the network
// size is known; num_stations = -1 must skip them (pre-network check).
TEST(OptionsFuzz, StationBoundsSkippedWithoutNetwork) {
  SimulationOptions o = valid_baseline();
  o.faults.outages.push_back({kNumStations + 3, 1.0, 2.0});
  EXPECT_TRUE(o.validate(kNumStations).has_value());
  EXPECT_FALSE(o.validate(-1).has_value());
}

}  // namespace
}  // namespace dgs::core
