// Property test for SimulationOptions::validate(), driven by the walk
// (walk_options) that validate() and options_crc32 share.  From a valid
// baseline that reaches every walked field, it corrupts each bounded
// number (NaN, +-inf, or just past its Bound) and breaks each check that
// spans fields.  Properties checked for every corruption:
//   1. every OptionsError.field is a field or a list the walk visits,
//   2. resetting exactly the named field to the baseline (clearing a
//      named list) and re-validating converges to nullopt in a bounded
//      number of rounds — i.e. validate() never blames an innocent field
//      and never reports a phantom constraint.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/core/simulator.h"
#include "src/faults/fault_rng.h"

namespace dgs::core {
namespace {

constexpr int kNumStations = 10;
constexpr int kMaxRepairRounds = 32;
constexpr double kInf = std::numeric_limits<double>::infinity();

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

/// Valid, with every guard on and every list non-empty, so the walk
/// reaches every field.
SimulationOptions valid_baseline() {
  SimulationOptions o;
  o.start = kT0;
  o.duration_hours = 6.0;
  o.step_seconds = 60.0;
  o.urgent_fraction = 0.25;
  o.station_backhaul_bps = 50e6;
  o.faults.outages = {{0, 1.0, 2.0}, {3, 2.5, 4.0}};
  o.faults.churn = {12.0, 1.0, 0.5};
  o.faults.backhaul = {{1, 0.5, 3.0, 0.25}, {2, 1.0, 2.0, 0.0}};
  o.faults.ack_relay.loss_probability = 0.2;
  o.faults.plan_upload.failure_probability = 0.1;
  o.station_subset = {4, 0, 7};
  o.tenants = {{"alpha", {0, 2}, 1.0, 30.0}, {"beta", {1}, 2.0, 0.0}};
  o.value_scale = {1.0, 2.5, 0.5};
  return o;
}

/// walk_options visitor: every field and list of one option set, by the
/// indexed name validate() reports.
struct Fields {
  struct Field {
    std::string name;
    double* real = nullptr;  ///< At most one of real, integer and text
    int* integer = nullptr;  ///< is set; none for a list.
    std::string* text = nullptr;
    Bound bound = Bound::kAny;
    bool checked = true;  ///< Its guard holds.
    std::function<void()> clear = nullptr;  ///< Lists only.
  };
  std::vector<Field> all;

  explicit Fields(SimulationOptions& o) { walk_options(*this, o); }

  void epoch(const char*, util::Epoch&) {}
  template <class T>
  void choice(const char*, T&) {}
  void seed(const char*, std::uint64_t&) {}
  void text(const char* name, std::string& s) {
    all.push_back({named(name), nullptr, nullptr, &s});
  }
  void real(const char* name, double& x, Bound b, bool checked = true) {
    all.push_back({named(name), &x, nullptr, nullptr, b, checked});
  }
  void integer(const char* name, int& x, Bound b, bool checked = true) {
    all.push_back({named(name), nullptr, &x, nullptr, b, checked});
  }
  template <class C, class F>
  void list(const char* name, C& items, F f) {
    const std::string list_name = named(name);
    all.push_back({list_name, nullptr, nullptr, nullptr, Bound::kAny, true,
                   [&items] { items.clear(); }});
    for (std::size_t i = 0; i < items.size(); ++i) {
      open_.push_back(list_name + "[" + std::to_string(i) + "]");
      f(items[i]);
      open_.pop_back();
    }
  }

  const Field* find(const std::string& name) const {
    for (const Field& f : all) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

 private:
  std::string named(const char* leaf) const {
    if (open_.empty()) return leaf;
    return *leaf == '\0' ? open_.back() : open_.back() + "." + leaf;
  }
  std::vector<std::string> open_;  ///< "tenants[1]", ...
};

/// Values outside a number's Bound: the non-finite reals, and the
/// nearest value past each finite edge.
std::vector<double> bad_values(const Fields::Field& n) {
  if (n.real == nullptr && n.integer == nullptr) return {};
  std::vector<double> out;
  if (n.real != nullptr) {
    out = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf};
  }
  const double below_zero = n.real ? std::nextafter(0.0, -1.0) : -1.0;
  switch (n.bound) {
    case Bound::kAny: break;
    case Bound::kPositive:
    case Bound::kFinitePositive: out.push_back(0.0); break;
    case Bound::kNonNegative: out.push_back(below_zero); break;
    case Bound::kUnit:
      out.push_back(below_zero);
      out.push_back(std::nextafter(1.0, 2.0));
      break;
    case Bound::kUnitOpen:
      out.push_back(below_zero);
      out.push_back(1.0);
      break;
    case Bound::kAtLeastOne:
      out.push_back(n.real ? std::nextafter(1.0, 0.0) : 0.0);
      break;
  }
  return out;
}

void set(const Fields::Field& n, double x) {
  if (n.real != nullptr) {
    *n.real = x;
  } else {
    *n.integer = static_cast<int>(x);
  }
}

/// Resets exactly the named field to its baseline value, or clears the
/// named list.  Returns false for a name the walk does not visit.
bool repair(SimulationOptions& o, const std::string& field) {
  SimulationOptions base = valid_baseline();
  const Fields now_fields(o);
  const Fields base_fields(base);
  const Fields::Field* now = now_fields.find(field);
  const Fields::Field* was = base_fields.find(field);
  if (now == nullptr) return false;
  if (now->clear) {
    now->clear();
  } else if (now->text != nullptr) {
    *now->text = *was->text;
  } else {
    set(*now, was->real ? *was->real : *was->integer);
  }
  return true;
}

/// Breaks one check that spans fields, keeping every list's shape.
using Corruption = std::function<void(SimulationOptions&)>;

const std::vector<Corruption>& cross_field_corruptions() {
  static const std::vector<Corruption> kTable = {
      [](SimulationOptions& o) { o.duration_hours = 0.001; },
      [](SimulationOptions& o) { o.duration_hours = 1e300; },
      [](SimulationOptions& o) {
        auto& w = o.faults.outages[1];
        w.end_hours = w.start_hours - 0.5;
      },
      [](SimulationOptions& o) {
        o.faults.backhaul[0].station_index = kNumStations;
      },
      [](SimulationOptions& o) { o.station_backhaul_bps = 0.0; },
      [](SimulationOptions& o) { o.faults.churn.mttr_hours = 0.0; },
      [](SimulationOptions& o) {
        auto& a = o.faults.ack_relay;
        a.max_backoff_s = a.initial_backoff_s / 2.0;
      },
      [](SimulationOptions& o) { o.station_subset[1] = -1; },
      [](SimulationOptions& o) { o.station_subset[2] = o.station_subset[0]; },
      [](SimulationOptions& o) { o.tenants[1].name = "Beta!"; },
      [](SimulationOptions& o) { o.tenants[1].name = o.tenants[0].name; },
      [](SimulationOptions& o) { o.tenants[0].satellites[1] = -3; },
      [](SimulationOptions& o) {
        o.tenants[1].satellites[0] = o.tenants[0].satellites[0];
      },
      // Bids and tenants both need per-instant scheduling.
      [](SimulationOptions& o) { o.lookahead_hours = 1.0; },
  };
  return kTable;
}

TEST(OptionsFuzz, BaselineIsValid) {
  EXPECT_FALSE(valid_baseline().validate(kNumStations).has_value());
}

// Deterministic coverage: each bad value of each walked number, applied
// alone, is reported against exactly that field; each cross-field
// corruption names a walked field.
TEST(OptionsFuzz, EveryCorruptionNamesAKnownField) {
  SimulationOptions base = valid_baseline();
  const Fields fields(base);
  for (std::size_t i = 0; i < fields.all.size(); ++i) {
    ASSERT_TRUE(fields.all[i].checked) << fields.all[i].name;
    for (const double bad : bad_values(fields.all[i])) {
      SimulationOptions o = valid_baseline();
      const Fields::Field n = Fields(o).all[i];
      set(n, bad);
      const auto e = o.validate(kNumStations);
      ASSERT_TRUE(e.has_value()) << n.name << " = " << bad;
      EXPECT_EQ(e->field, n.name) << bad << ": " << e->message;
      EXPECT_FALSE(e->message.empty()) << e->field;
    }
  }
  for (std::size_t c = 0; c < cross_field_corruptions().size(); ++c) {
    SimulationOptions o = valid_baseline();
    cross_field_corruptions()[c](o);
    const auto e = o.validate(kNumStations);
    ASSERT_TRUE(e.has_value()) << "corruption " << c << " was a no-op";
    EXPECT_NE(Fields(o).find(e->field), nullptr)
        << "corruption " << c << " named unknown field: " << e->field;
    EXPECT_FALSE(e->message.empty()) << e->field;
  }
}

// The fuzz property: random 1-3 corruption combos; every reported field
// is walked; repairing exactly the named field converges.
TEST(OptionsFuzz, RandomCorruptionsAreRepairableByNamedField) {
  faults::Pcg32 rng(20260808);
  const auto& cross = cross_field_corruptions();
  for (int iter = 0; iter < 200; ++iter) {
    SimulationOptions o = valid_baseline();
    const int n = 1 + static_cast<int>(rng.next() % 3);
    for (int k = 0; k < n; ++k) {
      const Fields fields(o);
      const std::size_t pick = rng.next() % (fields.all.size() + cross.size());
      if (pick >= fields.all.size()) {
        cross[pick - fields.all.size()](o);
        continue;
      }
      const std::vector<double> bad = bad_values(fields.all[pick]);
      if (!bad.empty()) set(fields.all[pick], bad[rng.next() % bad.size()]);
    }
    int rounds = 0;
    while (const auto e = o.validate(kNumStations)) {
      ASSERT_LT(rounds++, kMaxRepairRounds)
          << "iter " << iter << " did not converge; last field " << e->field;
      ASSERT_FALSE(e->message.empty()) << e->field;
      ASSERT_TRUE(repair(o, e->field))
          << "iter " << iter << " unknown field: " << e->field;
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
