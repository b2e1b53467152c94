// Unit tests for the observability subsystem (src/obs): metrics registry,
// scoped trace spans, and the structured event log.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"
#include "tests/json_lite.h"

namespace dgs::obs {
namespace {

using dgs::testing::json_number_field;
using dgs::testing::json_string_field;
using dgs::testing::json_valid;

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_EQ(c.value(), 3.5);
}

#ifdef DGS_ENABLE_DCHECKS
TEST(MetricsDeathTest, CounterWriteInsideParallelForTrips) {
  // Metrics are driver-thread state (DESIGN.md §10): a write from a pool
  // lane aborts instead of racing on the counter.
  EXPECT_DEATH(
      {
        Counter c;
        util::ThreadPool pool(
            util::ParallelConfig{.num_threads = 2, .chunk_size = 1});
        pool.parallel_for(8, [&c](std::int64_t, std::int64_t) { c.inc(); });
      },
      "metric written inside a parallel_for body");
}

// The inline paths are regions too, so a 1-lane run (most of the suite and
// every gated benchmark) trips the same check.
TEST(MetricsDeathTest, CounterWriteInsideOneLanePoolTrips) {
  EXPECT_DEATH(
      {
        Counter c;
        util::ThreadPool pool(
            util::ParallelConfig{.num_threads = 1, .chunk_size = 1});
        pool.parallel_for(8, [&c](std::int64_t, std::int64_t) { c.inc(); });
      },
      "metric written inside a parallel_for body");
}

TEST(MetricsDeathTest, CounterWriteInsideNullPoolLoopTrips) {
  EXPECT_DEATH(
      {
        Counter c;
        util::parallel_for(nullptr, 8,
                           [&c](std::int64_t, std::int64_t) { c.inc(); });
      },
      "metric written inside a parallel_for body");
}

TEST(MetricsDeathTest, CounterWriteInsideOneChunkRegionTrips) {
  // n <= chunk_size runs inline on the caller even with two lanes.
  EXPECT_DEATH(
      {
        Counter c;
        util::ThreadPool pool(
            util::ParallelConfig{.num_threads = 2, .chunk_size = 64});
        pool.parallel_for(8, [&c](std::int64_t, std::int64_t) { c.inc(); });
      },
      "metric written inside a parallel_for body");
}
#endif

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(4.25);
  g.set(-1.5);
  EXPECT_EQ(g.value(), -1.5);
}

TEST(Histogram, BucketsAreCumulative) {
  Histogram h({1.0, 5.0, 10.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(7.0);
  h.observe(100.0);
  EXPECT_EQ(h.cumulative_bucket(0), 1u);
  EXPECT_EQ(h.cumulative_bucket(1), 2u);
  EXPECT_EQ(h.cumulative_bucket(2), 3u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 110.5);
}

TEST(Histogram, BoundIsInclusive) {
  Histogram h({1.0, 2.0});
  h.observe(1.0);  // le="1" is <=, Prometheus semantics
  EXPECT_EQ(h.cumulative_bucket(0), 1u);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, ReRegistrationReturnsTheSameInstance) {
  Registry r;
  Counter* a = r.counter("dgs_test_total", "help");
  Counter* b = r.counter("dgs_test_total", "ignored on re-registration");
  EXPECT_EQ(a, b);
}

TEST(Registry, TypeMismatchThrows) {
  Registry r;
  r.counter("dgs_test_total", "help");
  EXPECT_THROW(r.gauge("dgs_test_total", "help"), std::invalid_argument);
}

TEST(Registry, PrometheusExpositionShape) {
  Registry r;
  r.counter("dgs_test_b_total", "second family")->inc(17.0);
  r.counter("dgs_test_a_total", "first family")->inc(2.0);
  r.gauge("dgs_test_g", "a gauge")->set(1.5);
  Histogram* h = r.histogram("dgs_test_h", "a histogram", {1.0, 2.0});
  h->observe(0.5);
  h->observe(1.5);
  h->observe(9.0);

  std::stringstream ss;
  r.write_prometheus(ss);
  const std::string text = ss.str();

  // Families in ascending name order, each with HELP/TYPE headers.
  EXPECT_LT(text.find("dgs_test_a_total"), text.find("dgs_test_b_total"));
  EXPECT_NE(text.find("# HELP dgs_test_a_total first family\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dgs_test_a_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dgs_test_a_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dgs_test_g gauge\n"), std::string::npos);
  EXPECT_NE(text.find("dgs_test_g 1.5\n"), std::string::npos);
  // Histogram: cumulative le buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE dgs_test_h histogram\n"), std::string::npos);
  EXPECT_NE(text.find("dgs_test_h_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("dgs_test_h_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("dgs_test_h_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dgs_test_h_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("dgs_test_h_count 3\n"), std::string::npos);

  // counter + counter + gauge + histogram (2 buckets + Inf + sum + count).
  EXPECT_EQ(r.series_count(), 2u + 1u + 5u);
}

TEST(Trace, DisabledSpansRecordNothing) {
  set_trace_enabled(false);
  clear_trace();
  {
    DGS_TRACE_SPAN("test.disabled");
  }
  EXPECT_EQ(trace_span_count(), 0u);
}

// The remaining trace tests need spans compiled in; with
// -DDGS_OBS_TRACING=OFF the macro is a no-op and nothing records.
#ifndef DGS_OBS_NO_TRACING
TEST(Trace, RecordsAndExportsChromeJson) {
  clear_trace();
  set_trace_enabled(true);
  {
    DGS_TRACE_SPAN("test.outer");
    DGS_TRACE_SPAN("test.inner");
  }
  set_trace_enabled(false);
  EXPECT_EQ(trace_span_count(), 2u);

  std::stringstream ss;
  write_chrome_trace(ss);
  const std::string text = ss.str();
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("test.outer"), std::string::npos);
  EXPECT_NE(text.find("test.inner"), std::string::npos);

  clear_trace();
  EXPECT_EQ(trace_span_count(), 0u);
}

TEST(Trace, SpansFromWorkerThreadsSurviveThreadExit) {
  clear_trace();
  set_trace_enabled(true);
  // dgslint: allow(R3) -- exercises span collection across raw thread exit
  std::thread worker([] { DGS_TRACE_SPAN("test.worker"); });
  worker.join();
  set_trace_enabled(false);
  EXPECT_EQ(trace_span_count(), 1u);
  std::stringstream ss;
  write_chrome_trace(ss);
  EXPECT_NE(ss.str().find("test.worker"), std::string::npos);
  clear_trace();
}
#endif  // DGS_OBS_NO_TRACING

TEST(StepClock, SharedTimestampFormula) {
  const util::Epoch t0(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const StepClock clock(t0, 60.0);
  // Same formula the timeseries exporter uses: step end, hours.
  EXPECT_DOUBLE_EQ(clock.end_hours(0), 1.0 / 60.0);
  EXPECT_DOUBLE_EQ(clock.end_hours(59), 1.0);
  // step_start must be the simulator's own `now` formula (one
  // plus_seconds from t0, not an accumulation), bit for bit.
  EXPECT_EQ(clock.step_start(10).seconds_since(t0),
            t0.plus_seconds(600.0).seconds_since(t0));
  EXPECT_EQ(clock.step_seconds(), 60.0);
}

TEST(EventLog, DisabledEmittersAreNoOps) {
  EventLog log;  // no sink
  EXPECT_FALSE(log.enabled());
  log.begin_step(0, 0.0);
  log.contact_open(0, 0, "QPSK 1/2", 1e6, 10.0);
  log.bytes_moved(0, 0, 1.0, true);  // must not crash
}

TEST(EventLog, EveryEventTypeEmitsOneValidJsonLine) {
  std::stringstream ss;
  EventLog log(&ss);
  ASSERT_TRUE(log.enabled());
  log.begin_step(3, 0.05);
  log.contact_open(1, 2, "QPSK 3/4", 1e6, 45.5);
  log.modcod_selected(1, 2, "8PSK 2/3", 2e6);
  log.bytes_moved(1, 2, 1234.5, true);
  log.bytes_moved(1, 2, 10.25, false);
  log.ack_relayed(1, 2, 10.0, 5.0, 2);
  log.plan_uploaded(1, 2, 60.0);
  log.contact_close(1, 2, 4);
  log.outage_begin(7);
  log.outage_end(7);
  log.backhaul_step(1.0, 2.0, 3.0);

  std::set<std::string> types;
  std::string line;
  int lines = 0;
  while (std::getline(ss, line)) {
    ++lines;
    EXPECT_TRUE(json_valid(line)) << line;
    double step = -1.0;
    double t_hours = -1.0;
    EXPECT_TRUE(json_number_field(line, "step", &step)) << line;
    EXPECT_TRUE(json_number_field(line, "t_hours", &t_hours)) << line;
    EXPECT_EQ(step, 3.0);
    EXPECT_EQ(t_hours, 0.05);
    std::string type;
    ASSERT_TRUE(json_string_field(line, "type", &type)) << line;
    types.insert(type);
  }
  EXPECT_EQ(lines, 10);
  const std::set<std::string> expected{
      "contact_open", "modcod_selected", "bytes_moved", "ack_relayed",
      "plan_uploaded", "contact_close", "outage_begin", "outage_end",
      "backhaul_step"};
  EXPECT_EQ(types, expected);
}

TEST(EventLog, ByteQuantitiesRoundTripExactly) {
  std::stringstream ss;
  EventLog log(&ss);
  log.begin_step(0, 0.0);
  const double awkward = 123456789.000000123;  // does not survive %g
  log.bytes_moved(0, 1, awkward, true);
  double parsed = 0.0;
  const std::string line = ss.str();
  ASSERT_TRUE(json_number_field(line, "bytes", &parsed)) << line;
  EXPECT_EQ(parsed, awkward);  // bit-exact: the log is a ledger
}

}  // namespace
}  // namespace dgs::obs
