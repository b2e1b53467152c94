// Multi-tenant service mode (DESIGN.md §16): TenantSpec validation, the
// deficit-weighted TenantArbiter, per-tenant accounting in the report,
// and checkpointing of the tenant books.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "tests/json_lite.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

// Contiguous slices covering `num_sats`, one per (name, weight) pair.
std::vector<TenantSpec> make_tenants(
    int num_sats, const std::vector<std::pair<std::string, double>>& specs) {
  std::vector<TenantSpec> tenants;
  const int per = num_sats / static_cast<int>(specs.size());
  int next = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TenantSpec t;
    t.name = specs[i].first;
    t.weight = specs[i].second;
    const int count =
        i + 1 == specs.size() ? num_sats - next : per;
    for (int k = 0; k < count; ++k) t.satellites.push_back(next++);
    tenants.push_back(std::move(t));
  }
  return tenants;
}

SimulationOptions tenant_opts(int num_sats,
                              std::vector<TenantSpec> tenants) {
  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 4.0;
  opts.tenants = std::move(tenants);
  (void)num_sats;
  return opts;
}

// --- Validation ------------------------------------------------------------

TEST(TenantValidation, AcceptsDisjointCoverage) {
  const auto opts = tenant_opts(8, make_tenants(8, {{"a", 1}, {"b", 2}}));
  EXPECT_FALSE(opts.validate(10, {}, 8).has_value());
}

TEST(TenantValidation, RejectsBadNamesWeightsAndSla) {
  auto opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.tenants[0].name = "Bad Name";
  auto err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[0].name");

  opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"a", 1}}));
  err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[1].name");

  opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", -2}}));
  err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[1].weight");

  opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.tenants[0].sla_latency_minutes = -1.0;
  err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[0].sla_latency_minutes");
}

TEST(TenantValidation, RejectsOverlapGapAndOutOfRange) {
  // Overlap: satellite 0 claimed twice.
  auto opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.tenants[1].satellites[0] = 0;
  auto err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[1].satellites[0]");

  // Gap: satellite 3 unowned.
  opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.tenants[1].satellites.pop_back();
  err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants");

  // Out of range.
  opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.tenants[1].satellites.back() = 99;
  err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[1].satellites[1]");

  // Disjointness is enforced even when the fleet size is unknown.
  opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.tenants[1].satellites[0] = 1;
  err = opts.validate(10, {}, -1);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants[1].satellites[0]");
}

TEST(TenantValidation, RejectsLookaheadCombination) {
  auto opts = tenant_opts(4, make_tenants(4, {{"a", 1}, {"b", 1}}));
  opts.lookahead_hours = 1.0;
  const auto err = opts.validate(10, {}, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "tenants");
}

// --- TenantArbiter unit behaviour ------------------------------------------

TEST(TenantArbiter, EntitlementsAndInitialScales) {
  TenantArbiter arb(make_tenants(8, {{"a", 1}, {"b", 2}, {"c", 5}}), 8);
  ASSERT_EQ(arb.num_tenants(), 3);
  EXPECT_DOUBLE_EQ(arb.entitlement(0), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(arb.entitlement(1), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(arb.entitlement(2), 5.0 / 8.0);
  // No deliveries yet: every tenant sits exactly at entitlement.
  arb.refresh_scales();
  for (int t = 0; t < 3; ++t) EXPECT_DOUBLE_EQ(arb.scale(t), 1.0);
  EXPECT_EQ(arb.tenant_of(0), 0);
  EXPECT_EQ(arb.tenant_of(7), 2);
}

TEST(TenantArbiter, StarvedTenantIsBoostedOverservedDamped) {
  TenantArbiter arb(make_tenants(4, {{"a", 1}, {"b", 1}}), 4);
  arb.record_delivery(0, 1000.0);  // All bytes to tenant a.
  arb.refresh_scales();
  EXPECT_LT(arb.scale(0), 1.0);
  EXPECT_GT(arb.scale(1), 1.0);
  // Fully starved share=0 -> deficit 1 -> scale 2^kDeficitGain.
  EXPECT_DOUBLE_EQ(arb.scale(1),
                   std::exp2(TenantArbiter::kDeficitGain));
  // The per-satellite vector mirrors ownership.
  EXPECT_DOUBLE_EQ(arb.sat_scale()[0], arb.scale(0));
  EXPECT_DOUBLE_EQ(arb.sat_scale()[3], arb.scale(1));
}

TEST(TenantArbiter, DeficitIsClampedForExtremeImbalance) {
  // Tenant a has weight 99 of 100 but received every byte: its deficit
  // clamps at -4, so the damping never exceeds 2^-12.
  TenantArbiter arb(make_tenants(4, {{"a", 99}, {"b", 1}}), 4);
  arb.record_delivery(3, 1000.0);  // Everything to the 1%-weight tenant.
  arb.refresh_scales();
  EXPECT_DOUBLE_EQ(arb.scale(1),
                   std::exp2(-4.0 * TenantArbiter::kDeficitGain));
  EXPECT_GT(arb.scale(0), 1.0);
}

TEST(TenantArbiter, RestoreStateReproducesBooks) {
  TenantArbiter a(make_tenants(4, {{"a", 1}, {"b", 3}}), 4);
  a.record_delivery(0, 500.0);
  a.record_assignment(0);
  a.record_assignment(3);
  BinaryWriter w;
  for (int t = 0; t < 2; ++t) a.io(w, t);
  TenantArbiter b(make_tenants(4, {{"a", 1}, {"b", 3}}), 4);
  BinaryReader r(w.data());
  for (int t = 0; t < 2; ++t) b.io(r, t);
  EXPECT_TRUE(r.done());
  a.refresh_scales();
  b.refresh_scales();
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(a.delivered_bytes(t), b.delivered_bytes(t));
    EXPECT_EQ(a.assignments(t), b.assignments(t));
    EXPECT_EQ(a.scale(t), b.scale(t));
  }
}

// --- End-to-end accounting -------------------------------------------------

struct TenantScenario {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
};

TenantScenario tenant_scenario() {
  groundseg::NetworkOptions net;
  net.num_stations = 12;
  net.num_satellites = 9;
  net.seed = 13;
  TenantScenario s;
  s.sats = groundseg::generate_constellation(net, kT0);
  s.stations = groundseg::generate_dgs_stations(net);
  return s;
}

TEST(TenantSim, PerTenantRowsPartitionTheRun) {
  const TenantScenario s = tenant_scenario();
  auto opts = tenant_opts(
      9, make_tenants(9, {{"a", 1}, {"b", 2}, {"c", 4}}));
  const SimulationResult r =
      Session(s.sats, s.stations, nullptr, opts).run_to_end();
  ASSERT_EQ(r.per_tenant.size(), 3u);
  double delivered = 0.0, generated = 0.0;
  std::int64_t assignments = 0;
  double shares = 0.0;
  for (const TenantOutcome& t : r.per_tenant) {
    EXPECT_EQ(t.num_satellites, 3);
    delivered += t.delivered_bytes;
    generated += t.generated_bytes;
    assignments += t.assignments;
    shares += t.share;
    EXPECT_GE(t.sla_attainment, 0.0);
    EXPECT_LE(t.sla_attainment, 1.0);
  }
  EXPECT_NEAR(delivered, r.total_delivered_bytes, 1.0);
  EXPECT_NEAR(generated, r.total_generated_bytes, 1.0);
  EXPECT_EQ(assignments, r.assignments);
  EXPECT_NEAR(shares, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.per_tenant[0].entitlement, 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(r.per_tenant[2].entitlement, 4.0 / 7.0);
}

TEST(TenantSim, SingleTenantMatchesUntenantedRunExactly) {
  // One tenant owning the whole fleet always sits at entitlement: every
  // scale is exactly 1 and the trajectory is bit-identical to a run with
  // no tenants at all.
  const TenantScenario s = tenant_scenario();
  SimulationOptions plain;
  plain.start = kT0;
  plain.duration_hours = 4.0;
  auto tenanted = plain;
  tenanted.tenants = make_tenants(9, {{"solo", 3.5}});
  const SimulationResult a =
      Session(s.sats, s.stations, nullptr, plain).run_to_end();
  const SimulationResult b =
      Session(s.sats, s.stations, nullptr, tenanted).run_to_end();
  EXPECT_EQ(a.total_delivered_bytes, b.total_delivered_bytes);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.failed_assignments, b.failed_assignments);
  ASSERT_EQ(b.per_tenant.size(), 1u);
  EXPECT_DOUBLE_EQ(b.per_tenant[0].entitlement, 1.0);
}

TEST(TenantSim, SummaryJsonGainsTenantRowsAndValidates) {
  const TenantScenario s = tenant_scenario();
  const auto opts = tenant_opts(
      9, make_tenants(9, {{"alpha", 1}, {"beta", 2}, {"gamma", 4}}));
  const SimulationResult r =
      Session(s.sats, s.stations, nullptr, opts).run_to_end();
  std::stringstream ss;
  write_summary_json(ss, r);
  const std::string json = ss.str();
  std::string why;
  EXPECT_TRUE(dgs::testing::summary_schema_valid(json, &why)) << why;
  for (const char* key : {"\"tenants\":", "\"t_000\":", "\"t_002\":",
                          "\"alpha\"", "\"gamma\"", "\"entitlement\":",
                          "\"share\":", "\"sla_attainment\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(TenantSim, SlaBoundaryCountsAsAttained) {
  // A chunk delivered at exactly the target latency is within the SLA.
  // The target is accounting-only, so both runs share one trajectory and
  // the target can be set to a latency the untargeted run delivered.
  const TenantScenario s = tenant_scenario();
  auto opts = tenant_opts(9, make_tenants(9, {{"a", 1}, {"b", 2}}));
  const SimulationResult untargeted =
      Session(s.sats, s.stations, nullptr, opts).run_to_end();
  ASSERT_EQ(untargeted.per_tenant.size(), 2u);
  const std::vector<double> lat =
      untargeted.per_tenant[0].latency_minutes.sorted();
  ASSERT_FALSE(lat.empty());
  EXPECT_EQ(untargeted.per_tenant[0].sla_attainment, 1.0);

  const double target = lat[lat.size() / 2];
  opts.tenants[0].sla_latency_minutes = target;
  const SimulationResult r =
      Session(s.sats, s.stations, nullptr, opts).run_to_end();
  EXPECT_EQ(r.per_tenant[0].latency_minutes.sorted(), lat);
  const auto n = static_cast<double>(lat.size());
  const double at_or_below =
      static_cast<double>(std::count_if(
          lat.begin(), lat.end(), [&](double v) { return v <= target; })) /
      n;
  const double below =
      static_cast<double>(std::count_if(
          lat.begin(), lat.end(), [&](double v) { return v < target; })) /
      n;
  ASSERT_GT(at_or_below, below);
  EXPECT_EQ(r.per_tenant[0].sla_attainment, at_or_below);
  EXPECT_EQ(r.per_tenant[1].sla_attainment, 1.0);
}

TEST(TenantSim, CheckpointRoundTripsTenantBooks) {
  const TenantScenario s = tenant_scenario();
  const auto opts = tenant_opts(
      9, make_tenants(9, {{"a", 1}, {"b", 2}, {"c", 4}}));

  Session baseline(s.sats, s.stations, nullptr, opts);
  std::stringstream full;
  write_summary_json(full, baseline.run_to_end());

  Session half(s.sats, s.stations, nullptr, opts);
  half.run_until_hours(2.0);
  std::stringstream cp;
  half.snapshot(cp);
  std::unique_ptr<Session> restored =
      Session::restore(cp, s.sats, s.stations, nullptr, opts);
  std::stringstream resumed;
  write_summary_json(resumed, restored->run_to_end());
  EXPECT_EQ(resumed.str(), full.str());
}

// Tenant mix is trajectory-shaping: a checkpoint taken under one weight
// vector must not restore under another.
TEST(TenantSim, CheckpointRejectsDifferentTenantMix) {
  const TenantScenario s = tenant_scenario();
  const auto opts = tenant_opts(
      9, make_tenants(9, {{"a", 1}, {"b", 2}, {"c", 4}}));
  Session session(s.sats, s.stations, nullptr, opts);
  session.run_until_hours(1.0);
  std::stringstream cp;
  session.snapshot(cp);
  auto other = tenant_opts(
      9, make_tenants(9, {{"a", 1}, {"b", 2}, {"c", 5}}));
  EXPECT_THROW(
      Session::restore(cp, s.sats, s.stations, nullptr, other),
      std::invalid_argument);
}

}  // namespace
}  // namespace dgs::core
