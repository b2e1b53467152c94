#include "src/core/run_artifact.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <ostream>
#include <type_traits>

#include "src/campaign/campaign.h"
#include "src/core/checkpoint.h"
#include "src/core/report.h"
#include "src/netdesign/pareto.h"
#include "src/util/check.h"

namespace dgs::core {
namespace {

std::optional<ArtifactError> err(std::string where, std::string message) {
  return ArtifactError{std::move(where), std::move(message)};
}

/// True when `v` is an exact integer the double can represent losslessly.
bool is_integral(double v) {
  return std::nearbyint(v) == v &&
         std::abs(v) <= static_cast<double>(kMaxArtifactInteger);
}

// --- Restricted JSON parser ------------------------------------------------

constexpr int kMaxDepth = 8;

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool done() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void skip_ws() {
    while (!done() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
};

bool fail(const Cursor& c, ArtifactError* e, const char* message) {
  if (e != nullptr) {
    *e = ArtifactError{"offset " + std::to_string(c.i), message};
  }
  return false;
}

bool parse_value(Cursor& c, JsonValue* out, int depth, ArtifactError* e);

bool parse_string_body(Cursor& c, std::string* out, ArtifactError* e) {
  if (c.done() || c.peek() != '"') return fail(c, e, "expected '\"'");
  ++c.i;
  out->clear();
  while (!c.done()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      // The writers only ever escape '"' and '\\'; anything fancier is
      // outside the artifact subset.
      if (c.done()) return fail(c, e, "dangling escape");
      const char esc = c.s[c.i++];
      if (esc != '"' && esc != '\\') {
        return fail(c, e, "unsupported escape in artifact string");
      }
      out->push_back(esc);
      continue;
    }
    out->push_back(ch);
  }
  return fail(c, e, "unterminated string");
}

bool parse_literal(Cursor& c, std::string_view lit, ArtifactError* e) {
  if (c.s.substr(c.i, lit.size()) != lit) {
    return fail(c, e, "unrecognized literal");
  }
  c.i += lit.size();
  return true;
}

bool parse_object(Cursor& c, JsonValue* out, int depth, ArtifactError* e) {
  if (depth >= kMaxDepth) return fail(c, e, "nesting too deep");
  ++c.i;  // consumes '{'
  out->kind = JsonValue::Kind::kObject;
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.i;
    return true;
  }
  while (true) {
    c.skip_ws();
    std::string key;
    if (!parse_string_body(c, &key, e)) return false;
    c.skip_ws();
    if (c.done() || c.peek() != ':') return fail(c, e, "expected ':'");
    ++c.i;
    JsonValue value;
    if (!parse_value(c, &value, depth + 1, e)) return false;
    out->members.emplace_back(std::move(key), std::move(value));
    c.skip_ws();
    if (c.done()) return fail(c, e, "unterminated object");
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (c.peek() == '}') {
      ++c.i;
      return true;
    }
    return fail(c, e, "expected ',' or '}'");
  }
}

bool parse_value(Cursor& c, JsonValue* out, int depth, ArtifactError* e) {
  c.skip_ws();
  if (c.done()) return fail(c, e, "unexpected end of document");
  switch (c.peek()) {
    case '{':
      return parse_object(c, out, depth, e);
    case '[':
      return fail(c, e, "arrays are outside the artifact JSON subset");
    case '"':
      out->kind = JsonValue::Kind::kString;
      return parse_string_body(c, &out->text, e);
    case 't':
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return parse_literal(c, "true", e);
    case 'f':
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return parse_literal(c, "false", e);
    case 'n':
      out->kind = JsonValue::Kind::kNull;
      return parse_literal(c, "null", e);
    default: {
      // Strict JSON number grammar, scanned before conversion: strtod
      // alone would also accept hex / inf / nan spellings, which are
      // outside the artifact subset.
      const std::size_t start = c.i;
      const auto digit_run = [&c] {
        const std::size_t from = c.i;
        while (!c.done() && c.peek() >= '0' && c.peek() <= '9') ++c.i;
        return c.i - from;
      };
      if (!c.done() && c.peek() == '-') ++c.i;
      const std::size_t int_start = c.i;
      if (digit_run() == 0) {
        c.i = start;
        return fail(c, e, "expected a JSON value");
      }
      if (c.s[int_start] == '0' && c.i - int_start > 1) {
        return fail(c, e, "malformed number");
      }
      if (!c.done() && c.peek() == '.') {
        ++c.i;
        if (digit_run() == 0) return fail(c, e, "malformed number");
      }
      if (!c.done() && (c.peek() == 'e' || c.peek() == 'E')) {
        ++c.i;
        if (!c.done() && (c.peek() == '+' || c.peek() == '-')) ++c.i;
        if (digit_run() == 0) return fail(c, e, "malformed number");
      }
      const std::string token(c.s.substr(start, c.i - start));
      out->kind = JsonValue::Kind::kNumber;
      out->number = std::strtod(token.c_str(), nullptr);
      return true;
    }
  }
}

// --- Field tables ------------------------------------------------------------
//
// One table per artifact object; each row's getter reads the value the
// writer emits off the struct being serialized.  member<&S::m> reads a
// plain data member; assign<&S::m> stores one back (checkpoint header).

template <class P>
struct MemberOf;
template <class S, class T>
struct MemberOf<T S::*> {
  using Struct = S;
  using Type = T;
};
template <auto M>
using StructOf = typename MemberOf<decltype(M)>::Struct;

template <auto M>
FieldValue member(const StructOf<M>& s) {
  return FieldValue(s.*M);
}

template <auto M>
void assign(StructOf<M>& s, const JsonValue& v) {
  using T = typename MemberOf<decltype(M)>::Type;
  if constexpr (std::is_same_v<T, bool>) {
    s.*M = v.boolean;
  } else if constexpr (std::is_floating_point_v<T>) {
    s.*M = v.number;
  } else {
    // The validator bounded the value to an exact integer below 2^53.
    s.*M = static_cast<T>(static_cast<long long>(v.number));
  }
}

using enum FieldKind;
using util::SampleSet;
using R = SimulationResult;
using H = CheckpointHeader;
using campaign::CampaignOptions;
using campaign::MetricAggregate;
using netdesign::FrontIdentity;
using netdesign::FrontPoint;

/// Opens every artifact but the summary; the struct is the artifact tag.
constexpr FieldSpec<std::string_view> kArtifactHeader[] = {
    {"schema_version", kInt,
     [](const std::string_view&) {
       return FieldValue(kRunArtifactSchemaVersion);
     }},
    {"artifact", kString,
     [](const std::string_view& tag) { return FieldValue(std::string(tag)); }},
};

constexpr FieldSpec<SampleSet> kStatsFields[] = {
    {"median", kReal3,
     [](const SampleSet& s) { return FieldValue(s.percentile(50.0)); }},
    {"p90", kReal3,
     [](const SampleSet& s) { return FieldValue(s.percentile(90.0)); }},
    {"p99", kReal3,
     [](const SampleSet& s) { return FieldValue(s.percentile(99.0)); }},
    {"mean", kReal3, [](const SampleSet& s) { return FieldValue(s.mean()); }},
    {"count", kInt, [](const SampleSet& s) { return FieldValue(s.size()); }},
};

constexpr FieldSpec<TenantOutcome> kTenantFields[] = {
    {"name", kString, member<&TenantOutcome::name>},
    {"weight", kReal, member<&TenantOutcome::weight>},
    {"num_satellites", kInt, member<&TenantOutcome::num_satellites>},
    {"delivered_tb", kReal,
     [](const TenantOutcome& t) {
       return FieldValue(t.delivered_bytes / 1e12);
     }},
    {"entitlement", kReal, member<&TenantOutcome::entitlement>},
    {"share", kReal, member<&TenantOutcome::share>},
    {"sla_latency_minutes", kReal, member<&TenantOutcome::sla_latency_minutes>},
    {"sla_attainment", kReal, member<&TenantOutcome::sla_attainment>},
    {"latency_minutes", kStats, member<&TenantOutcome::latency_minutes>},
};

constexpr FieldSpec<R> kSummaryFields[] = {
    {"schema_version", kInt,
     [](const R&) { return FieldValue(kRunArtifactSchemaVersion); }},
    {"latency_minutes", kStats, member<&R::latency_minutes>},
    {"urgent_latency_minutes", kStats, member<&R::urgent_latency_minutes>},
    {"backlog_gb", kStats, member<&R::backlog_gb>},
    {"ack_delay_minutes", kStats, member<&R::ack_delay_minutes>},
    {"cloud_latency_minutes", kStats, member<&R::cloud_latency_minutes>},
    {"total_generated_tb", kReal,
     [](const R& r) { return FieldValue(r.total_generated_bytes / 1e12); }},
    {"total_delivered_tb", kReal,
     [](const R& r) { return FieldValue(r.total_delivered_bytes / 1e12); }},
    {"total_dropped_tb", kReal,
     [](const R& r) { return FieldValue(r.total_dropped_bytes / 1e12); }},
    {"delivered_fraction", kReal,
     [](const R& r) { return FieldValue(r.delivered_fraction()); }},
    {"assignments", kInt, member<&R::assignments>},
    {"failed_assignments", kInt, member<&R::failed_assignments>},
    {"wasted_transmission_tb", kReal,
     [](const R& r) { return FieldValue(r.wasted_transmission_bytes / 1e12); }},
    {"requeued_tb", kReal,
     [](const R& r) { return FieldValue(r.requeued_bytes / 1e12); }},
    {"slew_events", kInt, member<&R::slew_events>},
    {"outage_lost_tb", kReal,
     [](const R& r) { return FieldValue(r.outage_lost_bytes / 1e12); }},
    {"ack_retries", kInt, member<&R::ack_retries>},
    {"replans", kInt, member<&R::replans>},
    {"plan_upload_failures", kInt, member<&R::plan_upload_failures>},
    {"mean_station_utilization", kReal, member<&R::mean_station_utilization>},
    {"steps", kInt, member<&R::steps>},
    {"tenants", kTenants, member<&R::per_tenant>},
};

constexpr FieldSpec<CampaignOptions> kCampaignIdentity[] = {
    {"profile", kString, member<&CampaignOptions::profile>},
    {"campaign_seed", kInt, member<&CampaignOptions::campaign_seed>},
    {"samples", kInt, member<&CampaignOptions::samples>},
    {"duration_hours", kReal, member<&CampaignOptions::duration_hours>},
    {"step_seconds", kReal, member<&CampaignOptions::step_seconds>},
    {"num_satellites", kInt, member<&CampaignOptions::num_satellites>},
    {"num_stations", kInt, member<&CampaignOptions::num_stations>},
    {"network_seed", kInt, member<&CampaignOptions::network_seed>},
    {"weather_seed", kInt, member<&CampaignOptions::weather_seed>},
};

constexpr FieldSpec<MetricAggregate> kAggregateMetric[] = {
    {"mean", kReal, member<&MetricAggregate::mean>},
    {"sd", kReal, member<&MetricAggregate::sd>},
    {"ci95", kReal, member<&MetricAggregate::ci95>},
    {"p50", kReal, member<&MetricAggregate::p50>},
    {"p99", kReal, member<&MetricAggregate::p99>},
    {"min", kReal, member<&MetricAggregate::min>},
    {"max", kReal, member<&MetricAggregate::max>},
    {"count", kInt, member<&MetricAggregate::count>},
};

constexpr FieldSpec<FrontIdentity> kNetdesignIdentity[] = {
    {"pool_size", kInt, member<&FrontIdentity::pool_size>},
    {"pool_seed", kInt, member<&FrontIdentity::pool_seed>},
    {"num_satellites", kInt, member<&FrontIdentity::num_satellites>},
    {"network_seed", kInt, member<&FrontIdentity::network_seed>},
    {"weather_seed", kInt, member<&FrontIdentity::weather_seed>},
    {"duration_hours", kReal, member<&FrontIdentity::duration_hours>},
    {"step_seconds", kReal, member<&FrontIdentity::step_seconds>},
};

/// "3,17,42": the selected station ids, comma-joined.
FieldValue joined_ids(const FrontPoint& p) {
  std::string out;
  for (std::size_t i = 0; i < p.station_ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(p.station_ids[i]);
  }
  return FieldValue(std::move(out));
}

constexpr FieldSpec<FrontPoint> kNetdesignPoint[] = {
    {"stations", kInt,
     [](const FrontPoint& p) { return FieldValue(p.station_ids.size()); }},
    {"cost", kReal, member<&FrontPoint::cost>},
    {"objective_gb", kReal, member<&FrontPoint::objective_gb>},
    {"latency_p50_min", kReal,
     [](const FrontPoint& p) { return FieldValue(p.eval.latency_p50_min); }},
    {"latency_p90_min", kReal,
     [](const FrontPoint& p) { return FieldValue(p.eval.latency_p90_min); }},
    {"backlog_end_gb", kReal,
     [](const FrontPoint& p) { return FieldValue(p.eval.backlog_end_gb); }},
    {"delivered_fraction", kReal,
     [](const FrontPoint& p) { return FieldValue(p.eval.delivered_fraction); }},
    {"dominated", kBool, member<&FrontPoint::dominated>},
    {"station_ids", kString, joined_ids},
};

constexpr const char* kCheckpointSections[] = {
    "result", "queues", "stations", "planner",
    "geometry", "matcher", "tenants", "metrics"};

constexpr FieldSpec<H> kCheckpointHeader[] = {
    {"num_satellites", kInt, member<&H::num_satellites>,
     assign<&H::num_satellites>},
    {"num_stations", kInt, member<&H::num_stations>,
     assign<&H::num_stations>},
    {"steps", kInt, member<&H::steps>, assign<&H::steps>},
    {"step_index", kInt, member<&H::step_index>, assign<&H::step_index>},
    {"step_seconds", kReal, member<&H::step_seconds>,
     assign<&H::step_seconds>},
    {"duration_hours", kReal, member<&H::duration_hours>,
     assign<&H::duration_hours>},
    {"finalized", kBool, member<&H::finalized>, assign<&H::finalized>},
    {"options_crc32", kInt, member<&H::options_crc32>,
     assign<&H::options_crc32>},
    {"sections", kInt,
     [](const H&) { return FieldValue(std::size(kCheckpointSections)); }},
    {"payload_bytes", kInt, member<&H::payload_bytes>,
     assign<&H::payload_bytes>},
    {"payload_crc32", kInt, member<&H::payload_crc32>,
     assign<&H::payload_crc32>},
};

// --- Validation --------------------------------------------------------------

std::optional<ArtifactError> check_number(const JsonValue& v,
                                          const std::string& where,
                                          bool integral) {
  if (v.kind != JsonValue::Kind::kNumber) {
    return err(where, "expected a number");
  }
  if (integral && !is_integral(v.number)) {
    return err(where, "expected an integer-valued number");
  }
  return std::nullopt;
}

std::optional<ArtifactError> check_value(const JsonValue& v, FieldKind kind,
                                         const std::string& where);

/// The one member loop: checks `rows` against the members of `obj`, in
/// order and kind.  With `at` null the object must hold exactly these
/// members; a wrong count is reported at `where`, a misplaced key at the
/// member found there.  Otherwise the rows start at member `*at` (after an
/// artifact header) and more members may follow; a misplaced or missing
/// key is reported at the key the row expects, and `*at` advances past the
/// rows.
template <class Rows>
std::optional<ArtifactError> check_fields(const JsonValue& obj,
                                          const Rows& rows,
                                          const std::string& where,
                                          std::size_t* at = nullptr) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return err(where, "expected an object");
  }
  const auto& members = obj.members;
  const std::size_t n = std::size(rows);
  if (at == nullptr && members.size() != n) {
    std::size_t p = 0;
    while (p < n && p < members.size() && members[p].first == rows[p].key) {
      ++p;
    }
    const std::string first_difference =
        p < n ? rows[p].key : members[p].first;
    return err(where, "expected exactly " + std::to_string(n) +
                          " keys, got " + std::to_string(members.size()) +
                          "; first difference at \"" + first_difference +
                          "\"");
  }
  std::size_t i = at != nullptr ? *at : 0;
  for (const auto& row : rows) {
    if (i >= members.size() || members[i].first != row.key) {
      const std::string found = i < members.size()
                                    ? "\"" + members[i].first + "\""
                                    : std::string("the end of the object");
      return err(where + "." + (at != nullptr ? row.key : members[i].first),
                 std::string("expected key \"") + row.key +
                     "\" at this position, found " + found);
    }
    if (auto e = check_value(members[i].second, row.kind,
                             where + "." + row.key)) {
      return e;
    }
    ++i;
  }
  if (at != nullptr) *at = i;
  return std::nullopt;
}

std::optional<ArtifactError> check_stats_object(const JsonValue& v,
                                                const std::string& where) {
  if (v.kind == JsonValue::Kind::kNull) return std::nullopt;
  if (v.kind != JsonValue::Kind::kObject) {
    return err(where, "expected a percentile object or null");
  }
  if (auto e = check_fields(v, kStatsFields, where)) return e;
  if (v.find("count")->number < 1.0) {
    return err(where + ".count", "must be >= 1 (empty sets are null)");
  }
  return std::nullopt;
}

std::optional<ArtifactError> check_tenants_object(const JsonValue& v,
                                                  const std::string& where) {
  if (v.kind == JsonValue::Kind::kNull) return std::nullopt;
  if (v.kind != JsonValue::Kind::kObject) {
    return err(where, "expected a tenants object or null");
  }
  if (v.members.empty()) {
    return err(where, "empty runs emit null, not an empty object");
  }
  std::size_t index = 0;
  for (const auto& [key, row] : v.members) {
    const std::string row_where = where + "." + key;
    const std::string expected = indexed_key('t', index++);
    if (key != expected) {
      return err(row_where,
                 "expected key \"" + expected + "\" at this position");
    }
    if (auto e = check_fields(row, kTenantFields, row_where)) return e;
    if (row.find("weight")->number <= 0.0) {
      return err(row_where + ".weight", "must be > 0");
    }
    for (const char* frac : {"entitlement", "share", "sla_attainment"}) {
      const double f = row.find(frac)->number;
      if (f < 0.0 || f > 1.0) {
        return err(row_where + "." + frac, "must be in [0, 1]");
      }
    }
  }
  return std::nullopt;
}

std::optional<ArtifactError> check_value(const JsonValue& v, FieldKind kind,
                                         const std::string& where) {
  switch (kind) {
    case kInt:
      return check_number(v, where, true);
    case kReal:
    case kReal3:
      return check_number(v, where, false);
    case kBool:
      if (v.kind != JsonValue::Kind::kBool) {
        return err(where, "expected true or false");
      }
      return std::nullopt;
    case kString:
      if (v.kind != JsonValue::Kind::kString || v.text.empty()) {
        return err(where, "expected a non-empty string");
      }
      return std::nullopt;
    case kStats:
      return check_stats_object(v, where);
    case kTenants:
      return check_tenants_object(v, where);
  }
  return std::nullopt;
}

/// Shared header check: first member schema_version == current, second
/// member the artifact tag.  Fills `*next` with the index of the first
/// member after the header.
std::optional<ArtifactError> check_artifact_header(
    const JsonValue& root, const std::string& where,
    std::string_view expected_tag, std::size_t* next) {
  const std::string version_where = where + "." + kArtifactHeader[0].key;
  const std::string tag_where = where + "." + kArtifactHeader[1].key;
  if (root.kind != JsonValue::Kind::kObject) {
    return err(where, "expected a JSON object");
  }
  if (root.members.size() < 2 ||
      root.members[0].first != kArtifactHeader[0].key) {
    return err(version_where, "must be the first key");
  }
  const JsonValue& version = root.members[0].second;
  if (auto e = check_number(version, version_where, true)) return e;
  if (static_cast<int>(version.number) != kRunArtifactSchemaVersion) {
    return err(version_where,
               "expected version " +
                   std::to_string(kRunArtifactSchemaVersion) + ", got " +
                   std::to_string(static_cast<int>(version.number)));
  }
  if (root.members[1].first != kArtifactHeader[1].key ||
      root.members[1].second.kind != JsonValue::Kind::kString) {
    return err(tag_where, "must be the second key, with a string value");
  }
  if (root.members[1].second.text != expected_tag) {
    return err(tag_where, "expected \"" + std::string(expected_tag) +
                              "\", got \"" + root.members[1].second.text +
                              "\"");
  }
  *next = 2;
  return std::nullopt;
}

/// "3,17,42" -> strictly ascending non-negative id count, or -1 on any
/// malformation.
int station_ids_count(const std::string& text) {
  int count = 0;
  long long prev = -1;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i;
    long long v = 0;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') {
      v = v * 10 + (text[j] - '0');
      ++j;
    }
    if (j == i) return -1;           // empty token
    if (v <= prev) return -1;        // not strictly ascending
    prev = v;
    ++count;
    if (j == text.size()) break;
    if (text[j] != ',') return -1;
    i = j + 1;
    if (i == text.size()) return -1;  // trailing comma
  }
  return count;
}

std::optional<ArtifactError> check_netdesign_point(const JsonValue& p,
                                                   const std::string& where) {
  if (auto e = check_fields(p, kNetdesignPoint, where)) return e;
  const double stations = p.find("stations")->number;
  if (stations < 1.0) {
    return err(where + ".stations", "must be >= 1");
  }
  const double frac = p.find("delivered_fraction")->number;
  if (frac < 0.0 || frac > 1.0) {
    return err(where + ".delivered_fraction", "must be in [0, 1]");
  }
  const int ids = station_ids_count(p.find("station_ids")->text);
  if (ids < 0) {
    return err(where + ".station_ids",
               "expected comma-joined strictly ascending station ids");
  }
  if (ids != static_cast<int>(stations)) {
    return err(where + ".station_ids",
               "lists " + std::to_string(ids) + " ids but stations is " +
                   std::to_string(static_cast<int>(stations)));
  }
  return std::nullopt;
}

/// Parses `text` and checks its artifact header and identity rows,
/// leaving `*at` at the first member after them.
template <class Rows>
std::optional<ArtifactError> check_document(std::string_view text,
                                            const std::string& where,
                                            std::string_view tag,
                                            const Rows& identity,
                                            std::optional<JsonValue>* doc,
                                            std::size_t* at) {
  ArtifactError parse_err;
  *doc = parse_restricted_json(text, &parse_err);
  if (!*doc) return err(where, parse_err.where + ": " + parse_err.message);
  if (auto e = check_artifact_header(**doc, where, tag, at)) return e;
  return check_fields(**doc, identity, where, at);
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> parse_restricted_json(std::string_view text,
                                               ArtifactError* err_out) {
  Cursor c{text};
  JsonValue v;
  if (!parse_value(c, &v, 0, err_out)) return std::nullopt;
  c.skip_ws();
  if (!c.done()) {
    fail(c, err_out, "trailing content after the document");
    return std::nullopt;
  }
  return v;
}

std::span<const FieldSpec<CampaignOptions>> campaign_identity_specs() {
  return kCampaignIdentity;
}

std::span<const FieldSpec<MetricAggregate>> aggregate_metric_specs() {
  return kAggregateMetric;
}

std::span<const FieldSpec<FrontIdentity>> netdesign_identity_specs() {
  return kNetdesignIdentity;
}

std::span<const FieldSpec<FrontPoint>> netdesign_point_specs() {
  return kNetdesignPoint;
}

std::span<const FieldSpec<H>> checkpoint_header_specs() {
  return kCheckpointHeader;
}

std::span<const char* const> checkpoint_section_names() {
  return kCheckpointSections;
}

std::string_view timeseries_csv_header() {
  return "hours,delivered_tb_cum,backlog_gb_total,active_links,"
         "failed_links_cum";
}

std::optional<ArtifactError> validate_summary_json(std::string_view text) {
  ArtifactError parse_err;
  const auto doc = parse_restricted_json(text, &parse_err);
  if (!doc) return err("summary", parse_err.where + ": " + parse_err.message);
  if (auto e = check_fields(*doc, kSummaryFields, "summary")) return e;
  const int version = static_cast<int>(doc->members[0].second.number);
  if (version != kRunArtifactSchemaVersion) {
    return err("summary.schema_version",
               "expected version " +
                   std::to_string(kRunArtifactSchemaVersion) + ", got " +
                   std::to_string(version));
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_timeseries_csv(std::string_view text) {
  std::size_t pos = 0;
  int line_no = 0;
  double prev_hours = -1.0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::string where = "timeseries line " + std::to_string(line_no);
    if (line_no == 1) {
      if (line != timeseries_csv_header()) {
        return err(where, "header does not match the schema");
      }
      continue;
    }
    if (line.empty()) return err(where, "empty row");
    // Exactly 5 columns, each a complete number.
    int col = 0;
    std::size_t field_start = 0;
    double hours = 0.0;
    for (std::size_t j = 0; j <= line.size(); ++j) {
      if (j != line.size() && line[j] != ',') continue;
      const std::string field(line.substr(field_start, j - field_start));
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (field.empty() || end != field.c_str() + field.size()) {
        return err(where, "column " + std::to_string(col + 1) +
                              " is not a number: \"" + field + "\"");
      }
      if (col == 0) hours = v;
      ++col;
      field_start = j + 1;
    }
    if (col != 5) {
      return err(where,
                 "expected 5 columns, got " + std::to_string(col));
    }
    if (hours <= prev_hours) {
      return err(where, "hours must be strictly increasing");
    }
    prev_hours = hours;
  }
  if (line_no == 0) return err("timeseries", "missing header row");
  return std::nullopt;
}

std::optional<ArtifactError> validate_events_jsonl(std::string_view text) {
  std::size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    // NUL-terminated copy: the number scanner is strtod-based.
    const std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "events line " + std::to_string(line_no);
    ArtifactError parse_err;
    const auto doc = parse_restricted_json(line, &parse_err);
    if (!doc) return err(where, parse_err.where + ": " + parse_err.message);
    if (doc->kind != JsonValue::Kind::kObject || doc->members.size() < 3) {
      return err(where, "expected an object with at least 3 members");
    }
    if (doc->members[0].first != "t_hours" ||
        doc->members[0].second.kind != JsonValue::Kind::kNumber) {
      return err(where, "member 1 must be \"t_hours\": <number>");
    }
    const JsonValue& step = doc->members[1].second;
    if (doc->members[1].first != "step" ||
        step.kind != JsonValue::Kind::kNumber ||
        !is_integral(step.number) || step.number < 0.0) {
      return err(where, "member 2 must be \"step\": <integer >= 0>");
    }
    if (doc->members[2].first != "type" ||
        doc->members[2].second.kind != JsonValue::Kind::kString ||
        doc->members[2].second.text.empty()) {
      return err(where, "member 3 must be \"type\": <non-empty string>");
    }
    for (std::size_t i = 3; i < doc->members.size(); ++i) {
      if (doc->members[i].second.kind == JsonValue::Kind::kObject) {
        return err(where + "." + doc->members[i].first,
                   "event payloads are flat (no nested objects)");
      }
    }
  }
  return std::nullopt;
}

double RunSummary::scalar(std::string_view key) const {
  const JsonValue* v = root.find(key);
  DGS_CHECK(v != nullptr && v->kind == JsonValue::Kind::kNumber,
            "RunSummary::scalar on a non-scalar field");
  return v->number;
}

const JsonValue* RunSummary::stats(std::string_view key) const {
  const JsonValue* v = root.find(key);
  DGS_CHECK(v != nullptr, "RunSummary::stats on an unknown field");
  return v->kind == JsonValue::Kind::kObject ? v : nullptr;
}

std::optional<ArtifactError> parse_summary_json(std::string_view text,
                                                RunSummary* out) {
  if (auto e = validate_summary_json(text)) return e;
  out->root = *parse_restricted_json(text);
  return std::nullopt;
}

std::optional<ArtifactError> validate_campaign_manifest_json(
    std::string_view text) {
  std::optional<JsonValue> doc;
  std::size_t at = 0;
  if (auto e = check_document(text, "manifest", "campaign_manifest",
                              kCampaignIdentity, &doc, &at)) {
    return e;
  }
  if (at != doc->members.size()) {
    return err("manifest." + doc->members[at].first, "unknown trailing key");
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_campaign_aggregate_json(
    std::string_view text) {
  std::optional<JsonValue> doc;
  std::size_t at = 0;
  if (auto e = check_document(text, "aggregate", "campaign_aggregate",
                              kCampaignIdentity, &doc, &at)) {
    return e;
  }
  const std::string metrics_where =
      std::string("aggregate.") + kAggregateMetricsKey;
  if (at + 1 != doc->members.size() ||
      doc->members[at].first != kAggregateMetricsKey) {
    return err(metrics_where, "must be the final key");
  }
  const JsonValue& metrics = doc->members[at].second;
  if (metrics.kind != JsonValue::Kind::kObject || metrics.members.empty()) {
    return err(metrics_where, "expected a non-empty object");
  }
  for (const auto& [name, m] : metrics.members) {
    const std::string where = metrics_where + "." + name;
    if (auto e = check_fields(m, kAggregateMetric, where)) return e;
    if (m.find("count")->number < 1.0) {
      return err(where + ".count", "must be >= 1");
    }
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_netdesign_front_json(
    std::string_view text) {
  std::optional<JsonValue> doc;
  std::size_t at = 0;
  if (auto e = check_document(text, "front", "netdesign_front",
                              kNetdesignIdentity, &doc, &at)) {
    return e;
  }
  const std::string points_where = std::string("front.") + kFrontPointsKey;
  if (at + 1 != doc->members.size() ||
      doc->members[at].first != kFrontPointsKey) {
    return err(points_where, "must be the final key");
  }
  const JsonValue& points = doc->members[at].second;
  if (points.kind != JsonValue::Kind::kObject || points.members.empty()) {
    return err(points_where, "expected a non-empty object");
  }
  long long prev_k = 0;
  for (const auto& [key, point] : points.members) {
    const std::string where = points_where + "." + key;
    if (key.size() < 5 || key.compare(0, 2, "k_") != 0) {
      return err(where, "point keys must look like \"k_004\"");
    }
    long long k = 0;
    for (std::size_t i = 2; i < key.size(); ++i) {
      if (key[i] < '0' || key[i] > '9') {
        return err(where, "point keys must look like \"k_004\"");
      }
      k = k * 10 + (key[i] - '0');
    }
    if (k <= prev_k) {
      return err(where, "point keys must be strictly ascending");
    }
    prev_k = k;
    if (auto e = check_netdesign_point(point, where)) return e;
    if (static_cast<long long>(point.find("stations")->number) != k) {
      return err(where + ".stations",
                 "must equal the K encoded in the point key");
    }
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_checkpoint_header_json(
    std::string_view text, CheckpointHeader* out) {
  std::optional<JsonValue> doc;
  std::size_t at = 0;
  if (auto e = check_document(text, "checkpoint", "checkpoint",
                              kCheckpointHeader, &doc, &at)) {
    return e;
  }
  if (at != doc->members.size()) {
    return err("checkpoint." + doc->members[at].first,
               "unknown trailing key");
  }
  const auto field = [&doc](std::string_view key) {
    return doc->find(key)->number;
  };
  for (const char* positive : {"num_satellites", "num_stations", "steps"}) {
    if (field(positive) < 1.0) {
      return err(std::string("checkpoint.") + positive, "must be >= 1");
    }
  }
  if (field("step_seconds") <= 0.0 || field("duration_hours") <= 0.0) {
    return err("checkpoint.step_seconds", "grid must be positive");
  }
  if (field("step_index") < 0.0 || field("step_index") > field("steps")) {
    return err("checkpoint.step_index", "must be in [0, steps]");
  }
  for (const char* crc : {"options_crc32", "payload_crc32"}) {
    const double v = field(crc);
    if (v < 0.0 || v > 4294967295.0) {
      return err(std::string("checkpoint.") + crc,
                 "must fit an unsigned 32-bit value");
    }
  }
  if (field("payload_bytes") < 0.0) {
    return err("checkpoint.payload_bytes", "must be >= 0");
  }
  const std::size_t sections = std::size(kCheckpointSections);
  if (field("sections") != static_cast<double>(sections)) {
    return err("checkpoint.sections",
               "expected " + std::to_string(sections) + " sections");
  }
  if (out != nullptr) {
    // The header rows sit right after the two artifact-header members.
    std::size_t i = std::size(kArtifactHeader);
    for (const FieldSpec<H>& row : kCheckpointHeader) {
      if (row.set != nullptr) row.set(*out, doc->members[i].second);
      ++i;
    }
  }
  return std::nullopt;
}

// --- Writers -----------------------------------------------------------------

void write_field(std::ostream& out, const char* key, FieldKind kind,
                 const FieldValue& value) {
  out << '"' << key << "\": ";
  // Wide enough for any double in %.6f.
  char buf[320];
  switch (kind) {
    case kInt:
      std::snprintf(buf, sizeof(buf), "%lld", value.integer);
      out << buf;
      return;
    case kReal:
      std::snprintf(buf, sizeof(buf), "%.6f", value.real);
      out << buf;
      return;
    case kReal3:
      std::snprintf(buf, sizeof(buf), "%.3f", value.real);
      out << buf;
      return;
    case kBool:
      out << (value.flag ? "true" : "false");
      return;
    case kString:
      // Unescaped: every string member (tenant and profile names, station
      // id lists, artifact tags) is validated to need no JSON escaping.
      out << '"' << value.text << '"';
      return;
    case kStats:
      if (value.stats->empty()) {
        out << "null";
      } else {
        out << '{';
        write_fields(out, kStatsFields, *value.stats, ", ");
        out << '}';
      }
      return;
    case kTenants: {
      const std::vector<TenantOutcome>& tenants = *value.tenants;
      if (tenants.empty()) {
        out << "null";
        return;
      }
      out << '{';
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        out << (t > 0 ? ", \"" : "\"") << indexed_key('t', t) << "\": {";
        write_fields(out, kTenantFields, tenants[t], ", ");
        out << '}';
      }
      out << '}';
      return;
    }
  }
}

void write_artifact_header(std::ostream& out, std::string_view tag,
                           std::string_view sep) {
  write_fields(out, kArtifactHeader, tag, sep);
}

std::string indexed_key(char prefix, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c_%03zu", prefix, index);
  return buf;
}

void write_timeseries_csv(std::ostream& out, const SimulationResult& result) {
  out << timeseries_csv_header() << "\n";
  char buf[128];
  for (const StepRecord& r : result.timeseries) {
    std::snprintf(buf, sizeof(buf), "%.4f,%.6f,%.3f,%d,%lld\n", r.hours,
                  r.delivered_bytes_cum / 1e12, r.backlog_bytes_total / 1e9,
                  r.active_links, static_cast<long long>(r.failed_cum));
    out << buf;
  }
}

void write_summary_json(std::ostream& out, const SimulationResult& result) {
  out << "{\n  ";
  write_fields(out, kSummaryFields, result, ",\n  ");
  out << "\n}\n";
}

}  // namespace dgs::core
