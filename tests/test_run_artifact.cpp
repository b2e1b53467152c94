// Run-artifact schema module: restricted JSON reader, summary /
// timeseries / events validators, and the campaign manifest / aggregate
// validators.  The positive paths are covered end to end by
// test_report.cpp and test_campaign.cpp; this file pins the *negative*
// space — every way an artifact can drift must be named precisely — and,
// per row of every artifact table, that deleting, moving or mistyping a
// member is reported at that member.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/manifest.h"
#include "src/core/checkpoint.h"
#include "src/core/report.h"
#include "src/core/run_artifact.h"
#include "src/netdesign/pareto.h"
#include "src/obs/events.h"

namespace dgs::core {
namespace {

std::string error_where(const std::optional<ArtifactError>& e) {
  return e ? e->where : std::string("(valid)");
}

/// Replaces the first occurrence of `from` (which must exist) with `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

std::string empty_summary() {
  std::stringstream ss;
  write_summary_json(ss, SimulationResult{});
  return ss.str();
}

// --- Restricted JSON reader ------------------------------------------------

TEST(RestrictedJson, ParsesTheSubsetAndPreservesOrder) {
  const auto doc = parse_restricted_json(
      "{\"b\": 1.5, \"a\": \"x\\\"y\\\\z\", \"flag\": true, "
      "\"none\": null, \"inner\": {\"n\": -2e3}}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc->members.size(), 5u);
  // Document order is part of the contract, not key order.
  EXPECT_EQ(doc->members[0].first, "b");
  EXPECT_EQ(doc->members[1].first, "a");
  EXPECT_EQ(doc->members[0].second.number, 1.5);
  EXPECT_EQ(doc->members[1].second.text, "x\"y\\z");
  EXPECT_TRUE(doc->members[2].second.boolean);
  EXPECT_EQ(doc->members[3].second.kind, JsonValue::Kind::kNull);
  const JsonValue* inner = doc->find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(inner->find("n")->number, -2000.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(RestrictedJson, RejectsWhatTheSubsetExcludes) {
  ArtifactError e;
  // Arrays are deliberately outside the subset.
  EXPECT_FALSE(parse_restricted_json("{\"a\": [1, 2]}", &e).has_value());
  EXPECT_FALSE(e.message.empty());
  // Escapes other than \" and \\ .
  EXPECT_FALSE(parse_restricted_json("{\"a\": \"\\n\"}").has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": \"\\u0041\"}").has_value());
  // Malformed documents.
  EXPECT_FALSE(parse_restricted_json("", &e).has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": 1,}").has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": \"unterminated").has_value());
  EXPECT_FALSE(parse_restricted_json("{} {}", &e).has_value());
  EXPECT_NE(e.message.find("trailing"), std::string::npos);
  // Depth cap: 9 nested objects exceed the max depth of 8.
  std::string deep;
  for (int i = 0; i < 9; ++i) deep += "{\"k\": ";
  deep += "1";
  for (int i = 0; i < 9; ++i) deep += "}";
  EXPECT_FALSE(parse_restricted_json(deep).has_value());
}

// --- Summary validator -----------------------------------------------------

TEST(SummaryValidator, AcceptsTheWriterOutput) {
  EXPECT_FALSE(validate_summary_json(empty_summary()).has_value());
}

TEST(SummaryValidator, RejectsWrongSchemaVersion) {
  const auto e = validate_summary_json(replaced(
      empty_summary(), "\"schema_version\": 2", "\"schema_version\": 1"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->where, "summary.schema_version");
}

TEST(SummaryValidator, RejectsMissingAndExtraKeys) {
  const auto missing = validate_summary_json(replaced(
      empty_summary(), "  \"ack_retries\": 0,\n", ""));
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->message.find("keys"), std::string::npos);
  const auto extra = validate_summary_json(replaced(
      empty_summary(), "\"steps\": 0", "\"steps\": 0,\n  \"extra\": 1"));
  EXPECT_TRUE(extra.has_value());
}

TEST(SummaryValidator, RejectsReorderedKeys) {
  // Swaps the adjacent generated/delivered keys via a placeholder (a
  // naive double replace would round-trip back to the original).
  std::string text =
      replaced(empty_summary(), "\"total_generated_tb\"", "\"TMP\"");
  text = replaced(text, "\"total_delivered_tb\"", "\"total_generated_tb\"");
  text = replaced(text, "\"TMP\"", "\"total_delivered_tb\"");
  const auto e = validate_summary_json(text);
  ASSERT_TRUE(e.has_value()) << text;
  EXPECT_NE(e->message.find("at this position"), std::string::npos);
}

TEST(SummaryValidator, RejectsWrongFieldKinds) {
  // Per-member deletions, swaps and scalar kinds of every artifact object
  // are also walked row by row in
  // ArtifactTables.EveryRowIsLocatedWhenDeletedMovedOrMistyped.
  // Integer field holding a fraction.
  const auto non_integer = validate_summary_json(
      replaced(empty_summary(), "\"steps\": 0", "\"steps\": 0.5"));
  ASSERT_TRUE(non_integer.has_value());
  EXPECT_EQ(non_integer->where, "summary.steps");
  // Stats field holding a partial percentile object.
  const auto partial = validate_summary_json(
      replaced(empty_summary(), "\"latency_minutes\": null",
               "\"latency_minutes\": {\"median\": 1.0}"));
  ASSERT_TRUE(partial.has_value());
  EXPECT_NE(error_where(partial).find("latency_minutes"),
            std::string::npos);
  // A populated stats object must carry count >= 1 (empty sets are null).
  const auto zero_count = validate_summary_json(replaced(
      empty_summary(), "\"latency_minutes\": null",
      "\"latency_minutes\": {\"median\": 0.000, \"p90\": 0.000, "
      "\"p99\": 0.000, \"mean\": 0.000, \"count\": 0}"));
  ASSERT_TRUE(zero_count.has_value());
  EXPECT_EQ(zero_count->where, "summary.latency_minutes.count");
}

// --- Timeseries validator --------------------------------------------------

TEST(TimeseriesValidator, AcceptsWellFormedRows) {
  const std::string text = std::string(timeseries_csv_header()) +
                           "\n0.0167,0.000001,0.250,3,0\n"
                           "0.0333,0.000002,0.260,2,1\n";
  EXPECT_FALSE(validate_timeseries_csv(text).has_value());
  // Header-only (no steps recorded) is valid.
  EXPECT_FALSE(
      validate_timeseries_csv(std::string(timeseries_csv_header()) + "\n")
          .has_value());
}

TEST(TimeseriesValidator, RejectsShapeViolations) {
  const std::string header(timeseries_csv_header());
  EXPECT_TRUE(validate_timeseries_csv("").has_value());
  EXPECT_TRUE(validate_timeseries_csv("hours,other\n1,2\n").has_value());
  // Wrong column count, non-numeric cell, non-increasing hours.
  EXPECT_TRUE(
      validate_timeseries_csv(header + "\n0.1,0.2,0.3,4\n").has_value());
  EXPECT_TRUE(validate_timeseries_csv(header + "\n0.1,abc,0.3,4,5\n")
                  .has_value());
  const auto stalled = validate_timeseries_csv(
      header + "\n0.2,0,0,0,0\n0.2,0,0,0,0\n");
  ASSERT_TRUE(stalled.has_value());
  EXPECT_NE(stalled->message.find("strictly increasing"),
            std::string::npos);
}

TEST(TimeseriesValidator, RejectsNonFiniteFieldsAndNonWholeCounts) {
  const std::string header(timeseries_csv_header());
  const auto check = [&header](const std::string& row,
                               const std::string& message) {
    const auto e = validate_timeseries_csv(header + "\n" + row + "\n");
    ASSERT_TRUE(e.has_value()) << row;
    EXPECT_EQ(e->where, "timeseries line 2") << row;
    EXPECT_EQ(e->message, message) << row;
  };
  check("nan,0.000001,0.250,3,0",
        "column hours is not a finite number: \"nan\"");
  check("0.0167,0.000001,inf,3,0",
        "column backlog_gb_total is not a finite number: \"inf\"");
  check("0.0167,0.000001abc,0.250,3,0",
        "column delivered_tb_cum is not a finite number: \"0.000001abc\"");
  check("0.0167,0.000001,0.250,2.5,0",
        "column active_links is not a whole number >= 0: \"2.5\"");
  check("0.0167,0.000001,0.250,3,-4",
        "column failed_links_cum is not a whole number >= 0: \"-4\"");
  check("0.0167,0.000001,0.250,3", "expected 5 columns, got 4");
}

// --- Events validator ------------------------------------------------------

TEST(EventsValidator, AcceptsTheEmittedShape) {
  std::ostringstream log_text;
  obs::EventLog log(&log_text);
  log.begin_step(1, 0.0167);
  log.contact_open(0, 3, "QPSK 1/2", 1.5e8, 12.25);
  log.begin_step(2, 0.0333);
  log.bytes_moved(0, 3, 1.5e9, true);
  // Blank lines between events are skipped.
  const std::string text = log_text.str() + "\n";
  const auto e = validate_events_jsonl(text);
  EXPECT_FALSE(e.has_value()) << e->where << ": " << e->message;
  // An empty log (no sinks fired) is valid.
  EXPECT_FALSE(validate_events_jsonl("").has_value());
}

/// One emitted bytes_moved line, to mutate.
std::string bytes_moved_line() {
  std::ostringstream out;
  obs::EventLog log(&out);
  log.begin_step(2, 0.0333);
  log.bytes_moved(4, 7, 1.5e9, true);
  return out.str();
}

TEST(EventsValidator, RejectsLinesOffTheirTypesRow) {
  const std::string line = bytes_moved_line();
  ASSERT_EQ(line,
            "{\"t_hours\": 0.0333, \"step\": 2, \"type\": \"bytes_moved\", "
            "\"sat\": 4, \"gs\": 7, \"bytes\": 1.5e+09, \"received\": true}\n");
  const auto check = [&line](const std::string& from, const std::string& to,
                             const std::string& where,
                             const std::string& message) {
    const auto e = validate_events_jsonl(replaced(line, from, to));
    ASSERT_TRUE(e.has_value()) << from << " -> " << to;
    EXPECT_EQ(e->where, where) << from << " -> " << to;
    EXPECT_NE(e->message.find(message), std::string::npos)
        << from << " -> " << to << ": " << e->message;
  };
  // An unknown or misspelled type.
  check("\"bytes_moved\"", "\"bytes_movde\"", "events line 1.type",
        "unknown event type \"bytes_movde\"");
  // A misspelled, missing or extra key, reported at the key the row
  // expects there.
  check("\"gs\"", "\"station\"", "events line 1.gs",
        "expected key \"gs\" at this position, found \"station\"");
  check(", \"received\": true", "", "events line 1.received",
        "expected key \"received\" at this position, found the end");
  check("true}", "true, \"note\": 1}", "events line 1.note",
        "unknown key after the \"bytes_moved\" members");
  // A value of the wrong kind.
  check("1.5e+09", "\"1.5e+09\"", "events line 1.bytes",
        "expected a number");
  check("\"sat\": 4", "\"sat\": 4.5", "events line 1.sat",
        "expected an integer-valued number");
  check("true", "1", "events line 1.received", "expected true or false");
}

TEST(EventsValidator, ChecksEveryKeyOfContactOpen) {
  // The line a hand-written example once called the emitted shape: "gs"
  // spelled "station", and no modcod, rate or elevation.
  const auto e = validate_events_jsonl(
      "{\"t_hours\": 0.0167, \"step\": 1, \"type\": \"contact_open\", "
      "\"sat\": 0, \"station\": 3}\n");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->where, "events line 1.gs");
  const auto modcod = validate_events_jsonl(
      "{\"t_hours\": 0.0167, \"step\": 1, \"type\": \"contact_open\", "
      "\"sat\": 0, \"gs\": 3, \"modcod\": 7, \"rate_bps\": 1, "
      "\"elevation_deg\": 10}\n");
  ASSERT_TRUE(modcod.has_value());
  EXPECT_EQ(modcod->where, "events line 1.modcod");
  EXPECT_EQ(modcod->message, "expected a non-empty string");
}

TEST(EventsValidator, RejectsMalformedLines) {
  // Prefix must open with t_hours, step (integer >= 0), type.
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"step\": 1, \"t_hours\": 0.1, \"type\": \"x\"}\n")
                  .has_value());
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"t_hours\": 0.1, \"step\": -1, \"type\": \"x\"}\n")
                  .has_value());
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"t_hours\": 0.1, \"step\": 1.5, \"type\": \"x\"}\n")
                  .has_value());
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"t_hours\": 0.1, \"step\": 1, \"type\": \"\"}\n")
                  .has_value());
  // Payloads are flat.
  const auto nested = validate_events_jsonl(
      "{\"t_hours\": 0.1, \"step\": 1, \"type\": \"x\", "
      "\"payload\": {\"a\": 1}}\n");
  ASSERT_TRUE(nested.has_value());
  EXPECT_NE(nested->message.find("flat"), std::string::npos);
  // Line numbers locate the bad row.
  const auto second = validate_events_jsonl(
      "{\"t_hours\": 0.1, \"step\": 1, \"type\": \"outage_begin\", "
      "\"gs\": 7}\n"
      "not json\n");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->where.find("line 2"), std::string::npos);
}

// --- Campaign manifest / aggregate validators ------------------------------

std::string valid_manifest() {
  return "{\n"
         "  \"schema_version\": 2,\n"
         "  \"artifact\": \"campaign_manifest\",\n"
         "  \"profile\": \"storm\",\n"
         "  \"campaign_seed\": 1,\n"
         "  \"samples\": 6,\n"
         "  \"duration_hours\": 2.000000,\n"
         "  \"step_seconds\": 60.000000,\n"
         "  \"num_satellites\": 4,\n"
         "  \"num_stations\": 10,\n"
         "  \"network_seed\": 13,\n"
         "  \"weather_seed\": 42\n"
         "}\n";
}

std::string valid_aggregate() {
  return replaced(
      replaced(valid_manifest(), "\"campaign_manifest\"",
               "\"campaign_aggregate\""),
      "  \"weather_seed\": 42\n",
      "  \"weather_seed\": 42,\n"
      "  \"metrics\": {\"backlog_mean_gb\": {\"mean\": 1.0, \"sd\": 0.1, "
      "\"ci95\": 0.05, \"p50\": 1.0, \"p99\": 1.2, \"min\": 0.8, "
      "\"max\": 1.3, \"count\": 6}}\n");
}

TEST(CampaignValidators, AcceptWellFormedDocuments) {
  const auto m = validate_campaign_manifest_json(valid_manifest());
  EXPECT_FALSE(m.has_value()) << error_where(m);
  const auto a = validate_campaign_aggregate_json(valid_aggregate());
  EXPECT_FALSE(a.has_value()) << error_where(a);
}

TEST(CampaignValidators, RejectHeaderViolations) {
  // Wrong artifact tag for the validator invoked.
  EXPECT_TRUE(
      validate_campaign_aggregate_json(valid_manifest()).has_value());
  EXPECT_TRUE(
      validate_campaign_manifest_json(valid_aggregate()).has_value());
  // schema_version must be first, and current.
  const auto stale = validate_campaign_manifest_json(replaced(
      valid_manifest(), "\"schema_version\": 2", "\"schema_version\": 0"));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->where, "manifest.schema_version");
}

TEST(CampaignValidators, RejectIdentityAndMetricViolations) {
  // Identity fields are ordered and typed; every member is also walked row
  // by row in ArtifactTables.EveryRowIsLocatedWhenDeletedMovedOrMistyped.
  EXPECT_TRUE(validate_campaign_manifest_json(
                  replaced(valid_manifest(), "\"profile\": \"storm\"",
                           "\"profile\": \"\""))
                  .has_value());
  EXPECT_TRUE(validate_campaign_manifest_json(
                  replaced(valid_manifest(), "  \"samples\": 6,\n", ""))
                  .has_value());
  EXPECT_TRUE(validate_campaign_manifest_json(
                  replaced(valid_manifest(), "\"weather_seed\": 42",
                           "\"weather_seed\": 42,\n  \"stray\": 1"))
                  .has_value());
  // Metric objects carry exactly the 8 aggregate members.
  const auto short_metric = validate_campaign_aggregate_json(
      replaced(valid_aggregate(), ", \"count\": 6", ""));
  ASSERT_TRUE(short_metric.has_value());
  EXPECT_NE(short_metric->where.find("backlog_mean_gb"),
            std::string::npos);
  EXPECT_TRUE(validate_campaign_aggregate_json(
                  replaced(valid_aggregate(), "\"count\": 6",
                           "\"count\": 0"))
                  .has_value());
  EXPECT_TRUE(validate_campaign_aggregate_json(
                  replaced(valid_aggregate(),
                           "\"metrics\": {\"backlog_mean_gb\"",
                           "\"metrics\": {}, \"x\": {\"backlog_mean_gb\""))
                  .has_value());
}


// --- Every row of every artifact table --------------------------------------
//
// A test-local tree over a writer's output that keeps each scalar's source
// text, so a member's kind is read off the writer's own formatting
// ("0.500000" is a real, "3" an integer, "null" a nullable object) and a
// mutated tree re-serializes everything outside the mutation unchanged.

struct Node {
  std::string scalar;  ///< Source text of a scalar; empty for an object.
  std::vector<std::pair<std::string, Node>> members;

  bool is_object() const { return scalar.empty(); }
};

std::size_t skip_ws(const std::string& t, std::size_t i) {
  while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i]))) ++i;
  return i;
}

/// Parses the writers' output (objects, plain strings and bare scalars).
Node parse_node(const std::string& t, std::size_t* i) {
  *i = skip_ws(t, *i);
  Node n;
  if (t[*i] == '{') {
    *i = skip_ws(t, *i + 1);
    if (t[*i] == '}') {
      ++*i;
      return n;
    }
    while (true) {
      *i = skip_ws(t, *i);
      const std::size_t close = t.find('"', *i + 1);
      std::string key = t.substr(*i + 1, close - *i - 1);
      *i = skip_ws(t, close + 1) + 1;  // past ':'
      Node child = parse_node(t, i);
      n.members.emplace_back(std::move(key), std::move(child));
      *i = skip_ws(t, *i);
      if (t[(*i)++] == '}') return n;  // else ','
    }
  }
  const std::size_t start = *i;
  if (t[*i] == '"') {
    *i = t.find('"', *i + 1) + 1;
  } else {
    while (*i < t.size() && t[*i] != ',' && t[*i] != '}' &&
           !std::isspace(static_cast<unsigned char>(t[*i]))) {
      ++*i;
    }
  }
  n.scalar = t.substr(start, *i - start);
  return n;
}

Node parse_tree(const std::string& text) {
  std::size_t i = 0;
  return parse_node(text, &i);
}

std::string dump(const Node& n) {
  if (!n.is_object()) return n.scalar;
  std::string out = "{";
  for (std::size_t i = 0; i < n.members.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + n.members[i].first + "\": " +
           dump(n.members[i].second);
  }
  return out + "}";
}

/// Values of every JSON kind, as text ("{}" stands for an object).
const char* const kProbes[] = {"1", "0.5", "true", "\"x\"", "null", "{}"};

/// The probes a member written as `value` accepts as its kind; every other
/// probe is a wrong kind for it.  An integer is a valid real, and null
/// stands in for an empty percentile set or a single-tenant run.
std::vector<std::string> accepted_probes(const Node& value) {
  const std::string& v = value.scalar;
  if (value.is_object() || v == "null") return {"null"};
  if (v.front() == '"') return {"\"x\""};
  if (v == "true" || v == "false") return {"true"};
  if (v.find('.') != std::string::npos) return {"1", "0.5"};
  return {"1"};
}

Node probe_node(const std::string& probe) {
  return probe == "{}" ? Node{} : Node{probe, {}};
}

using Validator = std::function<std::optional<ArtifactError>(std::string)>;

/// One object of a real writer's output, reached from the document root by
/// `path`; `where` is how the validator names it.
struct ArtifactObject {
  std::string artifact;
  std::string text;  ///< The whole document, as written.
  Validator validate;
  std::vector<std::string> path;
  std::string where;
};

Node* object_at(Node* root, const std::vector<std::string>& path) {
  Node* n = root;
  for (const std::string& key : path) {
    Node* next = nullptr;
    for (auto& [k, child] : n->members) {
      if (k == key) next = &child;
    }
    EXPECT_NE(next, nullptr) << key;
    if (next == nullptr) return root;
    n = next;
  }
  return n;
}

/// True when `e` locates member `key` of the object at `where`: at the
/// member itself, or in that object with a message that quotes the key.
bool names_member(const std::optional<ArtifactError>& e,
                  const std::string& where, const std::string& key) {
  if (!e) return false;
  if (e->where == where + "." + key) return true;
  const bool inside = e->where == where || e->where.starts_with(where + ".");
  return inside && e->message.find("\"" + key + "\"") != std::string::npos;
}

std::string summary_text() {
  SimulationResult r;
  r.latency_minutes = util::SampleSet({3.0, 5.0, 12.0});
  r.backlog_gb = util::SampleSet({0.25, 1.5});
  r.steps = 60;
  TenantOutcome t;
  t.name = "alpha";
  t.weight = 1.0;
  t.num_satellites = 2;
  t.entitlement = 1.0;
  t.share = 1.0;
  t.latency_minutes = util::SampleSet({4.0, 9.0});
  r.per_tenant.push_back(t);
  std::ostringstream out;
  write_summary_json(out, r);
  return out.str();
}

std::string aggregate_text() {
  campaign::CampaignOptions o;
  o.samples = 1;
  o.workers = 1;
  o.duration_hours = 0.1;
  o.num_satellites = 3;
  o.num_stations = 4;
  o.out_dir = (std::filesystem::path(::testing::TempDir()) /
               "artifact_tables_campaign")
                  .string();
  std::filesystem::remove_all(o.out_dir);
  campaign::run_campaign(o);
  std::ifstream in(campaign::aggregate_path(o));
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string front_text() {
  netdesign::FrontIdentity id;
  id.pool_size = 20;
  id.pool_seed = 7;
  id.num_satellites = 6;
  id.network_seed = 13;
  id.weather_seed = 42;
  id.duration_hours = 2.0;
  id.step_seconds = 60.0;
  std::vector<netdesign::FrontPoint> points(2);
  points[0].cost = 30.5;
  points[0].station_ids = {3, 17};
  points[1].cost = 52.25;
  points[1].dominated = true;
  points[1].station_ids = {3, 8, 17};
  std::ostringstream out;
  netdesign::write_netdesign_front(out, id, points);
  return out.str();
}

CheckpointHeader sample_header() {
  CheckpointHeader h;
  h.num_satellites = 12;
  h.num_stations = 8;
  h.steps = 120;
  h.step_index = 60;
  h.step_seconds = 60.0;
  h.duration_hours = 2.0;
  h.options_crc32 = 0xDEADBEEFu;
  h.payload_bytes = 4096;
  h.payload_crc32 = 0x12345678u;
  return h;
}

std::vector<ArtifactObject> artifact_objects() {
  const Validator summary = [](const std::string& t) {
    return validate_summary_json(t);
  };
  const Validator manifest = [](const std::string& t) {
    return validate_campaign_manifest_json(t);
  };
  const Validator aggregate = [](const std::string& t) {
    return validate_campaign_aggregate_json(t);
  };
  const Validator front = [](const std::string& t) {
    return validate_netdesign_front_json(t);
  };
  const Validator checkpoint = [](const std::string& t) {
    return validate_checkpoint_header_json(t);
  };
  const std::string s = summary_text();
  const std::string m = campaign::render_manifest(campaign::CampaignOptions{});
  const std::string a = aggregate_text();
  const std::string f = front_text();
  const std::string c = render_checkpoint_header(sample_header());
  const std::string metric = parse_tree(a).members.back().second
                                 .members.front().first;
  return {
      {"summary", s, summary, {}, "summary"},
      {"summary", s, summary, {"latency_minutes"},
       "summary.latency_minutes"},
      {"summary", s, summary, {"tenants", "t_000"}, "summary.tenants.t_000"},
      {"summary", s, summary, {"tenants", "t_000", "latency_minutes"},
       "summary.tenants.t_000.latency_minutes"},
      {"manifest", m, manifest, {}, "manifest"},
      {"aggregate", a, aggregate, {}, "aggregate"},
      {"aggregate", a, aggregate, {"metrics", metric},
       "aggregate.metrics." + metric},
      {"front", f, front, {}, "front"},
      {"front", f, front, {"points", "k_002"}, "front.points.k_002"},
      {"checkpoint", c, checkpoint, {}, "checkpoint"},
  };
}

TEST(ArtifactTables, EveryRowIsLocatedWhenDeletedMovedOrMistyped) {
  int mutations = 0;
  for (const ArtifactObject& obj : artifact_objects()) {
    const Node root = parse_tree(obj.text);
    // The tree round-trips: only the mutation below can fail validation.
    ASSERT_FALSE(obj.validate(dump(root)).has_value()) << obj.where;
    Node copy = root;
    const std::size_t rows = object_at(&copy, obj.path)->members.size();
    ASSERT_GT(rows, 1u) << obj.where;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::string key = object_at(&copy, obj.path)->members[i].first;
      const auto mutated = [&](const std::function<void(Node*)>& change) {
        Node doc = root;
        change(object_at(&doc, obj.path));
        ++mutations;
        return obj.validate(dump(doc));
      };

      const auto deleted = mutated([i](Node* o) {
        o->members.erase(o->members.begin() + static_cast<long>(i));
      });
      EXPECT_TRUE(names_member(deleted, obj.where, key))
          << "delete " << obj.where << "." << key << " -> "
          << (deleted ? deleted->where + ": " + deleted->message : "valid");

      const std::size_t other = i + 1 < rows ? i + 1 : i - 1;
      const auto swapped = mutated([i, other](Node* o) {
        std::swap(o->members[i], o->members[other]);
      });
      EXPECT_TRUE(names_member(swapped, obj.where, key))
          << "swap " << obj.where << "." << key << " -> "
          << (swapped ? swapped->where + ": " + swapped->message : "valid");

      const Node& value = object_at(&copy, obj.path)->members[i].second;
      const std::vector<std::string> accepted = accepted_probes(value);
      for (const char* probe : kProbes) {
        if (std::find(accepted.begin(), accepted.end(), probe) !=
            accepted.end()) {
          continue;
        }
        const auto wrong = mutated([i, probe](Node* o) {
          o->members[i].second = probe_node(probe);
        });
        EXPECT_TRUE(wrong.has_value() &&
                    wrong->where == obj.where + "." + key)
            << obj.where << "." << key << " = " << probe << " -> "
            << (wrong ? wrong->where + ": " + wrong->message : "valid");
      }
    }
    // A member outside the table is rejected inside this object too.
    const auto extra = [&] {
      Node doc = root;
      object_at(&doc, obj.path)->members.emplace_back("unexpected_key",
                                                      Node{"1", {}});
      return obj.validate(dump(doc));
    }();
    ASSERT_TRUE(extra.has_value()) << obj.where;
    EXPECT_TRUE(extra->where == obj.where ||
                extra->where.starts_with(obj.where + "."))
        << obj.where << " + unexpected_key -> " << extra->where;
  }
  EXPECT_GT(mutations, 400);
}

bool same_header(const CheckpointHeader& a, const CheckpointHeader& b) {
  return a.num_satellites == b.num_satellites &&
         a.num_stations == b.num_stations && a.steps == b.steps &&
         a.step_index == b.step_index && a.step_seconds == b.step_seconds &&
         a.duration_hours == b.duration_hours && a.finalized == b.finalized &&
         a.options_crc32 == b.options_crc32 &&
         a.payload_bytes == b.payload_bytes &&
         a.payload_crc32 == b.payload_crc32;
}

TEST(ArtifactTables, CheckpointHeaderReadsBackAtItsBoundaries) {
  for (const std::uint32_t crc : {0u, 0xFFFFFFFFu}) {
    for (const bool at_end : {false, true}) {
      CheckpointHeader h = sample_header();
      h.options_crc32 = crc;
      h.payload_crc32 = crc;
      h.step_index = at_end ? h.steps : 0;
      h.finalized = at_end;
      const std::string text = render_checkpoint_header(h);
      CheckpointHeader back;
      const auto e = validate_checkpoint_header_json(text, &back);
      ASSERT_FALSE(e.has_value()) << text << ": " << e->message;
      EXPECT_TRUE(same_header(h, back)) << text;

      // The same header through the container: the writer fills in the
      // payload size and CRC, and the reader fills the header once.
      std::vector<std::pair<std::string, std::string>> sections;
      for (const char* name : checkpoint_section_names()) {
        sections.emplace_back(name, std::string(name));
      }
      std::ostringstream file;
      write_checkpoint(file, h, sections);
      const std::string data = file.str();
      CheckpointView view;
      ASSERT_FALSE(read_checkpoint(data, &view).has_value()) << text;
      h.payload_bytes = view.header.payload_bytes;
      h.payload_crc32 = view.header.payload_crc32;
      EXPECT_TRUE(same_header(h, view.header)) << text;
      EXPECT_EQ(view.section("planner"), "planner");
    }
  }
}

}  // namespace
}  // namespace dgs::core
