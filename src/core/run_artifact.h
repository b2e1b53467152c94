// Run-artifact contract: the versioned schema of every restricted-JSON
// artifact the repo writes, plus validators and a restricted JSON reader.
//
// A simulation run writes three artifacts (DESIGN.md §12): the summary
// JSON (headline metrics), the timeseries CSV (per-step curves), and the
// JSONL event log.  Campaigns add a manifest and an aggregate, budget
// sweeps a network-design front, and snapshots a checkpoint header.  The
// members of each JSON artifact are listed once, in one FieldSpec table in
// run_artifact.cpp: a row names its key, its kind, and how to read its
// value off the struct it serializes.  The timeseries CSV's columns are one
// table there too, and the event log's types one table in
// src/obs/events.cpp; each drives its writer and its validator.  The
// writers emit a JSON table's rows through write_fields
// (write_summary_json in run_artifact.cpp, write_netdesign_front in
// src/netdesign/pareto.cpp, the campaign manifest and aggregate in
// src/campaign/, the checkpoint header in src/core/checkpoint.cpp), the
// validators here check the same rows with one member loop, and the
// checkpoint reader fills its header from them.
// Every consumer (dgs_cli, the Monte-Carlo campaign runner, the test
// suite, CI) pins kRunArtifactSchemaVersion.
//
// Versioning policy: the version is a single integer stamped into every
// JSON artifact as its first key.  Any change to the key set, key order,
// nesting, or number formatting of an artifact bumps it; adding a new
// event type to the JSONL log does not (event lines are self-describing
// via "type").  Validators accept exactly the current version — a
// campaign never mixes artifacts from two schema generations.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// The structs the artifact tables serialize, declared so the accessors
// below can name them; the tables in run_artifact.cpp read their
// definitions.
namespace dgs::util {
class SampleSet;
}  // namespace dgs::util
namespace dgs::campaign {
struct CampaignOptions;
struct MetricAggregate;
}  // namespace dgs::campaign
namespace dgs::netdesign {
struct FrontIdentity;
struct FrontPoint;
}  // namespace dgs::netdesign

namespace dgs::core {

struct TenantOutcome;
struct CheckpointHeader;

/// Bumped on any incompatible artifact-shape change (see policy above).
/// v2: the summary gained the "tenants" field (multi-tenant service mode,
/// DESIGN.md §16) and the dgs.checkpoint.v1 header joined the artifact
/// family.
inline constexpr int kRunArtifactSchemaVersion = 2;

/// Largest integer an artifact can hold: JSON numbers are read as
/// doubles, which are exact up to 2^53.  Seeds and counts an artifact
/// records must not exceed it.
inline constexpr std::uint64_t kMaxArtifactInteger =
    (std::uint64_t{1} << 53) - 1;

/// One invalid spot in an artifact: where it is and what is wrong,
/// mirroring OptionsError's shape for CLI error messages.
struct ArtifactError {
  std::string where;    ///< e.g. "summary.latency_minutes" or "line 17".
  std::string message;  ///< Human-readable constraint description.
};

// ---------------------------------------------------------------------------
// Restricted JSON reader.
//
// Run artifacts deliberately use a JSON subset — objects, numbers,
// strings, booleans, and null; no arrays, no non-ASCII escapes — so the
// reader stays small enough to be obviously correct and every consumer
// (including the campaign aggregator) shares one implementation.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  /// Object members in document order (order is part of the contract).
  std::vector<std::pair<std::string, JsonValue>> members;

  /// First member with this key, or nullptr.
  const JsonValue* find(std::string_view key) const;
};

/// Parses one complete document of the restricted subset.  On failure
/// returns nullopt and fills `err` (byte offset + reason) when non-null.
std::optional<JsonValue> parse_restricted_json(std::string_view text,
                                               ArtifactError* err = nullptr);

// ---------------------------------------------------------------------------
// Field tables.  Every member of every JSON artifact object is one
// FieldSpec row; the writers, the validators and the checkpoint reader
// all iterate the rows, so the key list lives in one place per artifact.

/// What a member holds, which fixes both how it is written and what the
/// validator accepts.
enum class FieldKind {
  kInt,      ///< Integer-valued number (written %lld).
  kReal,     ///< Real-valued number (written %.6f).
  kReal3,    ///< Real-valued number (written %.3f; percentile members).
  kBool,     ///< true / false.
  kString,   ///< Non-empty string (written unescaped).
  kStats,    ///< Percentile object {median,p90,p99,mean,count}, or null
             ///< for an empty sample set.
  kTenants,  ///< Per-tenant rows keyed "t_%03d" (the subset has no
             ///< arrays), or null for single-tenant runs.
};

/// A member's value as read off its struct; the member matching the row's
/// kind is the one set.
struct FieldValue {
  long long integer = 0;                         ///< kInt
  double real = 0.0;                             ///< kReal, kReal3
  bool flag = false;                             ///< kBool
  std::string text;                              ///< kString
  const util::SampleSet* stats = nullptr;        ///< kStats
  const std::vector<TenantOutcome>* tenants = nullptr;  ///< kTenants

  template <std::integral T>
  explicit FieldValue(T v) {
    if constexpr (std::same_as<T, bool>) {
      flag = v;
    } else {
      integer = static_cast<long long>(v);
    }
  }
  explicit FieldValue(double v) : real(v) {}
  explicit FieldValue(std::string v) : text(std::move(v)) {}
  explicit FieldValue(const util::SampleSet& s) : stats(&s) {}
  explicit FieldValue(const std::vector<TenantOutcome>& t) : tenants(&t) {}
};

/// One member of an artifact object serializing struct `S`.
template <class S>
struct FieldSpec {
  const char* key;
  FieldKind kind;
  FieldValue (*get)(const S&);
  /// Stores a validated value back into `S`; set on the rows of the one
  /// table a reader fills (the checkpoint header), null elsewhere.
  void (*set)(S&, const JsonValue&) = nullptr;
};

/// Writes `"key": value` for one member.
void write_field(std::ostream& out, const char* key, FieldKind kind,
                 const FieldValue& value);

/// Writes the rows of a field table for `s`, in order, joined by `sep`.
template <class Rows, class S>
void write_fields(std::ostream& out, const Rows& rows, const S& s,
                  std::string_view sep) {
  std::string_view between;
  for (const auto& row : rows) {
    out << between;
    write_field(out, row.key, row.kind, row.get(s));
    between = sep;
  }
}

/// Writes the two members that open every artifact but the summary:
/// schema_version, then the artifact tag, joined by `sep`.
void write_artifact_header(std::ostream& out, std::string_view tag,
                           std::string_view sep);

/// Key of the `index`-th entry of an array-like object: the subset has no
/// arrays, so tenant rows are "t_000", "t_001", ... and front points
/// "k_004", ... (index = station count).
std::string indexed_key(char prefix, std::size_t index);

// ---------------------------------------------------------------------------
// Summary JSON (one flat object; writer: write_summary_json in report.h).

/// The exact timeseries CSV header row (no trailing newline).
std::string_view timeseries_csv_header();

/// Full schema validation of a summary JSON document: syntax, pinned
/// schema_version, exact key set and order, per-field kinds.
std::optional<ArtifactError> validate_summary_json(std::string_view text);

/// Timeseries CSV: exact header, then per row one field per column of the
/// column table, each a whole finite number (a whole number >= 0 in the
/// count columns), hours strictly increasing.
std::optional<ArtifactError> validate_timeseries_csv(std::string_view text);

/// Event log: every non-empty line is a flat restricted-JSON object
/// opening with ("t_hours": number, "step": integer >= 0, "type": string),
/// whose type is a row of obs::event_schemas() and whose other members are
/// exactly that row's keys, in order, each of its kind.
std::optional<ArtifactError> validate_events_jsonl(std::string_view text);

/// A parsed-and-validated summary, ready for campaign aggregation.
struct RunSummary {
  JsonValue root;  ///< Validated object (kind == kObject).

  /// Value of a kInt/kReal field; the field must exist (checked).
  double scalar(std::string_view key) const;
  /// Percentile object of a kStats field, or nullptr when it was null.
  const JsonValue* stats(std::string_view key) const;
};

/// validate_summary_json + DOM in one pass.
std::optional<ArtifactError> parse_summary_json(std::string_view text,
                                                RunSummary* out);

// ---------------------------------------------------------------------------
// Campaign artifacts (src/campaign): the manifest identifying a campaign
// and the aggregate produced from its sample summaries.

/// Campaign identity members shared by the manifest and the aggregate
/// (written after schema_version and the artifact tag, in this order).
std::span<const FieldSpec<campaign::CampaignOptions>>
campaign_identity_specs();

/// Members of one aggregate metric object, in emission order.
std::span<const FieldSpec<campaign::MetricAggregate>>
aggregate_metric_specs();

/// The aggregate's final member: an object of metric objects keyed by
/// metric name.
inline constexpr const char* kAggregateMetricsKey = "metrics";

/// Manifest: flat object with schema_version, artifact tag
/// "campaign_manifest", the campaign identity members, and nothing else.
std::optional<ArtifactError> validate_campaign_manifest_json(
    std::string_view text);

/// Aggregate: schema_version + artifact tag "campaign_aggregate" +
/// campaign identity + a "metrics" object whose values each carry exactly
/// the aggregate_metric_specs members.
std::optional<ArtifactError> validate_campaign_aggregate_json(
    std::string_view text);

// ---------------------------------------------------------------------------
// Network-design artifacts (src/netdesign): the cost/performance Pareto
// front emitted by a budget sweep (`dgs.netdesign.v1`).  Same restricted
// JSON subset; the per-K points live in a "points" object keyed "k_%03d"
// (ascending) because the subset has no arrays.

/// Front identity members (written after schema_version + the
/// "netdesign_front" tag, in this order): what pool and scenario the
/// sweep optimized over.
std::span<const FieldSpec<netdesign::FrontIdentity>>
netdesign_identity_specs();

/// Members of one front point.  "station_ids" is the selected subset as a
/// comma-joined ascending id list; its length must equal the "stations"
/// member.
std::span<const FieldSpec<netdesign::FrontPoint>> netdesign_point_specs();

/// The front's final member: the object of points.
inline constexpr const char* kFrontPointsKey = "points";

/// Full schema validation of a netdesign front document: header, identity
/// fields, non-empty "points" object with ascending "k_NNN" keys matching
/// each point's "stations" value, exact per-point key set/order/kinds,
/// and station_ids consistency.
std::optional<ArtifactError> validate_netdesign_front_json(
    std::string_view text);

// ---------------------------------------------------------------------------
// Checkpoint artifact (src/core/checkpoint.h): the `dgs.checkpoint.v5`
// container opens with a restricted-JSON header identifying the run a
// snapshot belongs to.  The binary framing (magic line, sized sections,
// CRC) is defined in checkpoint.h; the header's members live here like
// every other artifact's.  The magic names the container format;
// schema_version inside the header is the repo-wide artifact generation.

/// Header members (written after schema_version + the "checkpoint" tag,
/// in this order).  "finalized" records whether the horizon had
/// completed; the trailing section/payload members pin the binary framing
/// that follows the header.
std::span<const FieldSpec<CheckpointHeader>> checkpoint_header_specs();

/// Ordered payload section names of a checkpoint, the exact sequence the
/// writer emits and the reader requires.  Since v3 the "geometry" and
/// "matcher" sections are always empty.
std::span<const char* const> checkpoint_section_names();

/// Full schema validation of a checkpoint header document: artifact
/// header, exact key set/order/kinds, and range checks (positive grid,
/// step_index within [0, steps], CRC/size fields representable).  When
/// `out` is non-null a valid header is also stored into it, from the same
/// parse.
std::optional<ArtifactError> validate_checkpoint_header_json(
    std::string_view text, CheckpointHeader* out = nullptr);

}  // namespace dgs::core
