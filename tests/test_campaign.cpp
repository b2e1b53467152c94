// Monte-Carlo campaign runner: artifact-level determinism, per-sample
// seed derivation, resume semantics, and worker-count invariance
// (DESIGN.md §12).  The headline properties:
//   - same fault seed  -> byte-equal summary / metrics / events artifacts,
//   - different seeds  -> different fault-event sequences,
//   - resume and worker count never change a byte of the aggregate.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/faults/fault_rng.h"
#include "tests/json_lite.h"

namespace dgs::campaign {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fresh per-test scratch directory under gtest's temp root.
std::string temp_root(const char* name) {
  const fs::path p = fs::path(::testing::TempDir()) / name;
  fs::remove_all(p);
  return p.string();
}

/// A campaign small enough for unit tests but with every fault channel
/// active (storm = churn + flaky-net + brownout).
CampaignOptions small_opts(const std::string& dir) {
  CampaignOptions o;
  o.profile = "storm";
  o.campaign_seed = 1;
  o.samples = 6;
  o.workers = 1;
  o.out_dir = dir;
  o.duration_hours = 2.0;
  o.num_satellites = 4;
  o.num_stations = 10;
  return o;
}

/// The fault-injection subsequence of an events.jsonl body: the lines
/// whose "type" is one of the fault event types.  Contact/transfer events
/// are excluded so the comparison isolates the seeded fault draws.
std::vector<std::string> fault_lines(const std::string& jsonl) {
  static const std::set<std::string> kFaultTypes = {
      "outage_begin",         "outage_end",      "outage_loss",
      "ack_relay_retry",      "plan_upload_failed", "replan",
      "backhaul_fault_begin", "backhaul_fault_end"};
  std::vector<std::string> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    std::string type;
    if (dgs::testing::json_string_field(line, "type", &type) &&
        kFaultTypes.count(type)) {
      out.push_back(line);
    }
  }
  return out;
}

TEST(CampaignSeeds, DerivationIsPureAndDecorrelated) {
  std::set<std::uint64_t> seen;
  for (std::int64_t i = 0; i < 256; ++i) {
    const std::uint64_t s = faults::campaign_sample_seed(7, i);
    // Matches the documented keyed-SplitMix64 chain exactly.
    EXPECT_EQ(s, faults::mix_key(faults::mix_key(7, faults::kStreamCampaign),
                                 static_cast<std::uint64_t>(i)));
    seen.insert(s);
  }
  // No collisions across the campaign and no collision with the raw seed.
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_FALSE(seen.count(7));
}

TEST(CampaignDeterminism, SameSeedSameArtifactBytes) {
  const std::string dir_a = temp_root("camp_det_a");
  const std::string dir_b = temp_root("camp_det_b");
  CampaignOptions a = small_opts(dir_a);
  CampaignOptions b = small_opts(dir_b);
  fs::create_directories(sample_dir(a, 3));
  fs::create_directories(sample_dir(b, 3));
  run_sample(a, 3);
  run_sample(b, 3);
  for (const char* artifact : {"summary.json", "metrics.txt",
                               "events.jsonl"}) {
    const std::string bytes_a =
        slurp(fs::path(sample_dir(a, 3)) / artifact);
    EXPECT_EQ(bytes_a, slurp(fs::path(sample_dir(b, 3)) / artifact))
        << artifact;
    EXPECT_FALSE(bytes_a.empty()) << artifact;
  }
  std::string why;
  EXPECT_TRUE(dgs::testing::summary_schema_valid(
      slurp(fs::path(sample_dir(a, 3)) / "summary.json"), &why))
      << why;
  EXPECT_TRUE(dgs::testing::events_schema_valid(
      slurp(fs::path(sample_dir(a, 3)) / "events.jsonl"), &why))
      << why;
}

TEST(CampaignDeterminism, DifferentSeedsDifferentFaultSequences) {
  const std::string dir_a = temp_root("camp_seed_a");
  const std::string dir_b = temp_root("camp_seed_b");
  CampaignOptions a = small_opts(dir_a);
  CampaignOptions b = small_opts(dir_b);
  b.campaign_seed = 2;
  fs::create_directories(sample_dir(a, 0));
  fs::create_directories(sample_dir(b, 0));
  run_sample(a, 0);
  run_sample(b, 0);
  const auto faults_a =
      fault_lines(slurp(fs::path(sample_dir(a, 0)) / "events.jsonl"));
  const auto faults_b =
      fault_lines(slurp(fs::path(sample_dir(b, 0)) / "events.jsonl"));
  // Storm injects faults on any seed at this horizon, and the two seeds
  // must draw different sequences.
  EXPECT_FALSE(faults_a.empty());
  EXPECT_FALSE(faults_b.empty());
  EXPECT_NE(faults_a, faults_b);
}

TEST(CampaignDeterminism, SampleIndexSelectsDifferentScenario) {
  const std::string dir = temp_root("camp_idx");
  const CampaignOptions o = small_opts(dir);
  fs::create_directories(sample_dir(o, 0));
  fs::create_directories(sample_dir(o, 1));
  run_sample(o, 0);
  run_sample(o, 1);
  EXPECT_NE(fault_lines(slurp(fs::path(sample_dir(o, 0)) / "events.jsonl")),
            fault_lines(slurp(fs::path(sample_dir(o, 1)) / "events.jsonl")));
}

TEST(Campaign, EndToEndResumeAndAggregateStability) {
  const std::string dir = temp_root("camp_e2e");
  CampaignOptions o = small_opts(dir);
  o.workers = 2;

  const CampaignResult first = run_campaign(o);
  EXPECT_EQ(first.samples, o.samples);
  EXPECT_EQ(first.computed, o.samples);
  EXPECT_EQ(first.reused, 0);
  EXPECT_FALSE(first.metrics.empty());
  EXPECT_FALSE(validate_campaign_dir(dir).has_value());
  const std::string aggregate = slurp(aggregate_path(o));
  std::string why;
  EXPECT_TRUE(dgs::testing::json_valid(aggregate));

  // Rerun: everything is done, nothing recomputes, same bytes.
  const CampaignResult rerun = run_campaign(o);
  EXPECT_EQ(rerun.reused, o.samples);
  EXPECT_EQ(rerun.computed, 0);
  EXPECT_EQ(slurp(aggregate_path(o)), aggregate);

  // Kill two shards (delete their done markers) and resume: exactly those
  // recompute and the aggregate is byte-identical.
  fs::remove(fs::path(sample_dir(o, 1)) / "summary.json");
  fs::remove(fs::path(sample_dir(o, 4)) / "summary.json");
  const CampaignResult resumed = run_campaign(o);
  EXPECT_EQ(resumed.reused, o.samples - 2);
  EXPECT_EQ(resumed.computed, 2);
  EXPECT_EQ(slurp(aggregate_path(o)), aggregate);
  EXPECT_FALSE(validate_campaign_dir(dir).has_value());
}

TEST(Campaign, AggregateInvariantToWorkerCount) {
  const std::string dir_serial = temp_root("camp_w1");
  const std::string dir_forked = temp_root("camp_w2");
  CampaignOptions serial = small_opts(dir_serial);
  CampaignOptions forked = small_opts(dir_forked);
  serial.samples = forked.samples = 4;
  serial.workers = 1;
  forked.workers = 2;
  run_campaign(serial);
  run_campaign(forked);
  EXPECT_EQ(slurp(aggregate_path(serial)), slurp(aggregate_path(forked)));
  // Per-sample artifacts match too: sharding only changes who computes.
  for (int i = 0; i < serial.samples; ++i) {
    EXPECT_EQ(slurp(fs::path(sample_dir(serial, i)) / "summary.json"),
              slurp(fs::path(sample_dir(forked, i)) / "summary.json"))
        << i;
  }
}

TEST(Campaign, ManifestMismatchIsRejected) {
  const std::string dir = temp_root("camp_manifest");
  CampaignOptions o = small_opts(dir);
  o.samples = 2;
  run_campaign(o);
  CampaignOptions changed = o;
  changed.profile = "churn";
  EXPECT_THROW(run_campaign(changed), std::runtime_error);
  // The original campaign directory is untouched and still valid.
  EXPECT_FALSE(validate_campaign_dir(dir).has_value());
}

TEST(Campaign, OptionsValidateCatchesBadFields) {
  CampaignOptions o = small_opts(temp_root("camp_opts"));
  EXPECT_FALSE(o.validate().has_value());
  o.profile = "hurricane";
  ASSERT_TRUE(o.validate().has_value());
  EXPECT_EQ(o.validate()->field, "profile");
  o = small_opts("x");
  o.samples = 0;
  EXPECT_EQ(o.validate()->field, "samples");
  o = small_opts("x");
  o.workers = -1;
  EXPECT_EQ(o.validate()->field, "workers");
  o = small_opts("x");
  o.out_dir.clear();
  EXPECT_EQ(o.validate()->field, "out_dir");
}

TEST(Campaign, SeedsPastTheExactJsonRangeAreRejectedBeforeAnyWork) {
  // 2^53 - 1 is the largest seed a JSON number carries exactly: it runs,
  // and the directory it writes passes our own validator.
  constexpr std::uint64_t kMaxSeed = core::kMaxArtifactInteger;
  CampaignOptions o = small_opts(temp_root("camp_max_seed"));
  o.samples = 1;
  o.duration_hours = 0.1;
  o.num_satellites = 3;
  o.num_stations = 4;
  o.campaign_seed = o.network_seed = o.weather_seed = kMaxSeed;
  ASSERT_FALSE(o.validate().has_value());
  run_campaign(o);
  const auto e = validate_campaign_dir(o.out_dir);
  EXPECT_FALSE(e.has_value()) << e->where << ": " << e->message;
  EXPECT_NE(slurp(manifest_path(o)).find(
                "\"campaign_seed\": 9007199254740991,"),
            std::string::npos);

  // 2^53 is not, for any of the three seeds: validate() names the field
  // and run_campaign() throws before it creates the directory.
  for (const auto& [field, seed] :
       {std::pair{"campaign_seed", &CampaignOptions::campaign_seed},
        std::pair{"network_seed", &CampaignOptions::network_seed},
        std::pair{"weather_seed", &CampaignOptions::weather_seed}}) {
    CampaignOptions bad = o;
    bad.out_dir = temp_root("camp_inexact_seed");
    bad.*seed = kMaxSeed + 1;
    const auto err = bad.validate();
    ASSERT_TRUE(err.has_value()) << field;
    EXPECT_EQ(err->field, field);
    EXPECT_THROW(run_campaign(bad), std::runtime_error);
    EXPECT_FALSE(fs::exists(bad.out_dir)) << field;
  }
}

TEST(Campaign, MetricsArtifactsAreOptional) {
  const std::string dir = temp_root("camp_no_sinks");
  CampaignOptions o = small_opts(dir);
  o.samples = 2;
  o.write_metrics = false;
  o.write_events = false;
  const CampaignResult r = run_campaign(o);
  EXPECT_EQ(r.computed, 2);
  EXPECT_FALSE(fs::exists(fs::path(sample_dir(o, 0)) / "metrics.txt"));
  EXPECT_FALSE(fs::exists(fs::path(sample_dir(o, 0)) / "events.jsonl"));
  EXPECT_FALSE(validate_campaign_dir(dir).has_value());
}

}  // namespace
}  // namespace dgs::campaign
