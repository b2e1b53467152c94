// Value functions Phi: latency and throughput.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/value.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr double kGb = 1e9;

TEST(LatencyValue, ZeroForEmptyQueue) {
  OnboardQueue q;
  LatencyValue v;
  EXPECT_DOUBLE_EQ(v.edge_value(q, kT0, 1e9), 0.0);
}

TEST(LatencyValue, AgeWeightedBytes) {
  OnboardQueue q;
  q.generate(2.0 * kGb, kT0);  // 2 GB captured at t0
  LatencyValue v;
  const util::Epoch now = kT0.plus_seconds(600);  // age 10 min
  // Link can move 1 GB: value = 1 GB * 10 min = 10 GB-min.
  EXPECT_NEAR(v.edge_value(q, now, 1.0 * kGb), 10.0, 1e-9);
  // Link can move everything: 2 GB * 10 min.
  EXPECT_NEAR(v.edge_value(q, now, 5.0 * kGb), 20.0, 1e-9);
}

TEST(LatencyValue, OlderDataDominates) {
  OnboardQueue old_q, new_q;
  old_q.generate(1.0 * kGb, kT0);
  new_q.generate(1.0 * kGb, kT0.plus_seconds(3000));
  LatencyValue v;
  const util::Epoch now = kT0.plus_seconds(3600);
  EXPECT_GT(v.edge_value(old_q, now, kGb), v.edge_value(new_q, now, kGb));
}

TEST(LatencyValue, WalksQueueOldestFirst) {
  OnboardQueue q;
  q.generate(1.0 * kGb, kT0);                      // old
  q.generate(1.0 * kGb, kT0.plus_seconds(1800));   // newer
  LatencyValue v;
  const util::Epoch now = kT0.plus_seconds(3600);
  // 1 GB budget consumes only the old chunk: 1 GB * 60 min.
  EXPECT_NEAR(v.edge_value(q, now, kGb), 60.0, 1e-9);
  // 2 GB budget adds the newer chunk: + 1 GB * 30 min.
  EXPECT_NEAR(v.edge_value(q, now, 2 * kGb), 90.0, 1e-9);
}

TEST(ThroughputValue, BytesMovedOnly) {
  OnboardQueue q;
  q.generate(3.0 * kGb, kT0);
  ThroughputValue v;
  EXPECT_NEAR(v.edge_value(q, kT0.plus_seconds(60), 2.0 * kGb), 2.0, 1e-12);
  EXPECT_NEAR(v.edge_value(q, kT0.plus_seconds(60), 9.0 * kGb), 3.0, 1e-12);
}

TEST(ThroughputValue, IndependentOfAge) {
  OnboardQueue q;
  q.generate(1.0 * kGb, kT0);
  ThroughputValue v;
  EXPECT_DOUBLE_EQ(v.edge_value(q, kT0.plus_seconds(60), kGb),
                   v.edge_value(q, kT0.plus_seconds(86400), kGb));
}

TEST(MakeValueFunction, FactoryNames) {
  EXPECT_EQ(make_value_function(ValueKind::kLatency)->name(), "latency");
  EXPECT_EQ(make_value_function(ValueKind::kThroughput)->name(),
            "throughput");
}

TEST(ValueFunctions, AlwaysNonNegative) {
  OnboardQueue q;
  q.generate(0.5 * kGb, kT0.plus_seconds(120));
  LatencyValue lat;
  ThroughputValue thr;
  // Querying "before" capture (clock skew) must not produce negative value.
  EXPECT_GE(lat.edge_value(q, kT0, kGb), 0.0);
  EXPECT_GE(thr.edge_value(q, kT0, kGb), 0.0);
}

}  // namespace
}  // namespace dgs::core
