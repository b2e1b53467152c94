// Timeseries collection and report export.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/report.h"
#include "src/faults/profiles.h"
#include "tests/json_lite.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

SimulationResult run_small(bool timeseries) {
  groundseg::NetworkOptions net;
  net.num_stations = 15;
  net.num_satellites = 8;
  net.seed = 13;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  SimulationOptions opts;
  opts.start = kT0;
  opts.duration_hours = 4.0;
  opts.collect_timeseries = timeseries;
  return Simulator(sats, stations, nullptr, opts).run();
}

TEST(Timeseries, OffByDefault) {
  EXPECT_TRUE(run_small(false).timeseries.empty());
}

TEST(Timeseries, OneRecordPerStep) {
  const SimulationResult r = run_small(true);
  EXPECT_EQ(static_cast<std::int64_t>(r.timeseries.size()), r.steps);
}

TEST(Timeseries, CumulativeCurvesAreMonotone) {
  const SimulationResult r = run_small(true);
  double prev_delivered = -1.0;
  std::int64_t prev_failed = -1;
  double prev_hours = 0.0;
  for (const StepRecord& rec : r.timeseries) {
    EXPECT_GE(rec.delivered_bytes_cum, prev_delivered);
    EXPECT_GE(rec.failed_cum, prev_failed);
    EXPECT_GT(rec.hours, prev_hours);
    EXPECT_GE(rec.backlog_bytes_total, 0.0);
    prev_delivered = rec.delivered_bytes_cum;
    prev_failed = rec.failed_cum;
    prev_hours = rec.hours;
  }
  // Final record matches the summary totals.
  EXPECT_NEAR(r.timeseries.back().delivered_bytes_cum,
              r.total_delivered_bytes, 1.0);
  EXPECT_NEAR(r.timeseries.back().hours, 4.0, 1e-9);
}

TEST(Report, CsvRowPerStepPlusHeader) {
  const SimulationResult r = run_small(true);
  std::stringstream ss;
  write_timeseries_csv(ss, r);
  int lines = 0;
  std::string line;
  while (std::getline(ss, line)) {
    if (lines > 0) {
      EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4) << line;
    }
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<int>(r.timeseries.size()) + 1);
}

TEST(Report, JsonHasStableKeysAndBalancedBraces) {
  const SimulationResult r = run_small(false);
  std::stringstream ss;
  write_summary_json(ss, r);
  const std::string json = ss.str();
  for (const char* key :
       {"latency_minutes", "backlog_gb", "total_delivered_tb",
        "failed_assignments", "mean_station_utilization"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  // Empty sample sets serialize as null, not a crash.
  EXPECT_NE(json.find("\"urgent_latency_minutes\": null"),
            std::string::npos);
}

TEST(Report, SummaryJsonParses) {
  // Both with populated and with empty (null-serialized) sample sets.
  for (const bool timeseries : {false, true}) {
    const SimulationResult r = run_small(timeseries);
    std::stringstream ss;
    write_summary_json(ss, r);
    EXPECT_TRUE(dgs::testing::json_valid(ss.str())) << ss.str();
  }
  std::stringstream empty;
  write_summary_json(empty, SimulationResult{});
  EXPECT_TRUE(dgs::testing::json_valid(empty.str())) << empty.str();
}

TEST(Report, SummaryJsonKeysAreStable) {
  std::stringstream ss;
  write_summary_json(ss, run_small(false));
  const std::string json = ss.str();
  for (const char* key :
       {"latency_minutes", "urgent_latency_minutes", "backlog_gb",
        "ack_delay_minutes", "cloud_latency_minutes", "total_generated_tb",
        "total_delivered_tb", "total_dropped_tb", "delivered_fraction",
        "assignments", "failed_assignments", "wasted_transmission_tb",
        "requeued_tb", "slew_events", "mean_station_utilization", "steps"}) {
    EXPECT_NE(json.find(dgs::testing::json_key_needle(key)),
              std::string::npos)
        << key;
  }
}

TEST(Report, CsvHeaderIsStable) {
  std::stringstream ss;
  write_timeseries_csv(ss, run_small(true));
  std::string header;
  ASSERT_TRUE(std::getline(ss, header));
  EXPECT_EQ(header,
            "hours,delivered_tb_cum,backlog_gb_total,active_links,"
            "failed_links_cum");
  EXPECT_EQ(header, std::string(timeseries_csv_header()));
}

// --- Run-artifact schema round trips (run_artifact.h is the contract the
// writers emit; the validators must accept every writer output) -------------

TEST(RunArtifactSchema, SummaryAndTimeseriesValidate) {
  const SimulationResult r = run_small(true);
  std::stringstream json, csv;
  write_summary_json(json, r);
  write_timeseries_csv(csv, r);
  std::string why;
  EXPECT_TRUE(dgs::testing::summary_schema_valid(json.str(), &why)) << why;
  EXPECT_TRUE(dgs::testing::timeseries_schema_valid(csv.str(), &why))
      << why;
  // A default (all-empty) result also honours the schema.
  std::stringstream empty;
  write_summary_json(empty, SimulationResult{});
  EXPECT_TRUE(dgs::testing::summary_schema_valid(empty.str(), &why)) << why;
}

TEST(RunArtifactSchema, SchemaVersionIsPinned) {
  ASSERT_EQ(kRunArtifactSchemaVersion, 2);
  std::stringstream ss;
  write_summary_json(ss, run_small(false));
  double version = 0.0;
  ASSERT_TRUE(dgs::testing::json_number_field(ss.str(), "schema_version",
                                              &version));
  EXPECT_EQ(static_cast<int>(version), kRunArtifactSchemaVersion);
}

// The round trip the CLI performs for every profile: make_profile ->
// validate -> simulate -> write_summary_json must produce a document the
// shared validator accepts, fault accounting included.
TEST(RunArtifactSchema, AllFaultProfilesRoundTrip) {
  groundseg::NetworkOptions net;
  net.num_stations = 15;
  net.num_satellites = 8;
  net.seed = 13;
  const auto sats = groundseg::generate_constellation(net, kT0);
  const auto stations = groundseg::generate_dgs_stations(net);
  for (const char* profile :
       {"none", "churn", "flaky-net", "brownout", "storm"}) {
    SimulationOptions opts;
    opts.start = kT0;
    opts.duration_hours = 2.0;
    opts.faults = faults::make_profile(profile, 7, net.num_stations);
    if (opts.faults.has_backhaul_faults()) {
      opts.station_backhaul_bps = 50e6;
    }
    ASSERT_FALSE(opts.validate(net.num_stations).has_value()) << profile;
    const SimulationResult r =
        Simulator(sats, stations, nullptr, opts).run();
    std::stringstream ss;
    write_summary_json(ss, r);
    std::string why;
    EXPECT_TRUE(dgs::testing::summary_schema_valid(ss.str(), &why))
        << profile << ": " << why;
    double version = 0.0;
    ASSERT_TRUE(dgs::testing::json_number_field(ss.str(),
                                                "schema_version", &version))
        << profile;
    EXPECT_EQ(static_cast<int>(version), kRunArtifactSchemaVersion)
        << profile;
  }
}

}  // namespace
}  // namespace dgs::core
