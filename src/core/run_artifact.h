// Run-artifact contract: the versioned schema of everything a simulation
// run writes to disk, plus validators and a restricted JSON reader.
//
// A run produces three artifacts (DESIGN.md §12): the summary JSON
// (headline metrics), the timeseries CSV (per-step curves), and the JSONL
// event log.  Their shapes used to live implicitly in three places —
// report.cpp's writers, dgs_cli's consumers, and tests/json_lite.h — and
// drifted independently.  This module is now the single source of truth:
// the writers in report.h iterate summary_field_specs(), the validators
// here check the same table, and every consumer (dgs_cli, the Monte-Carlo
// campaign runner, the test suite, CI) pins kRunArtifactSchemaVersion.
//
// Versioning policy: the version is a single integer stamped into every
// summary and aggregate document as its first key.  Any change to the key
// set, key order, nesting, or number formatting of an artifact bumps it;
// adding a new event type to the JSONL log does not (event lines are
// self-describing via "type").  Validators accept exactly the current
// version — a campaign never mixes artifacts from two schema generations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dgs::core {

/// Bumped on any incompatible artifact-shape change (see policy above).
/// v2: the summary gained the "tenants" field (multi-tenant service mode,
/// DESIGN.md §16) and the dgs.checkpoint.v1 header joined the artifact
/// family.
inline constexpr int kRunArtifactSchemaVersion = 2;

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
// Summary JSON schema (one flat object; see report.h for the writer).

enum class SummaryFieldKind {
  kInt,      ///< Integer-valued number (emitted %lld).
  kReal,     ///< Real-valued number (emitted %.6f).
  kStats,    ///< Percentile object {median,p90,p99,mean,count} or null.
  kTenants,  ///< Per-tenant object keyed "t_%03d" (tenant_field_specs),
             ///< or null for single-tenant runs.
};

struct SummaryFieldSpec {
  const char* key;
  SummaryFieldKind kind;
};

/// The authoritative ordered field list of the summary JSON.  The writer
/// emits exactly these keys in exactly this order; the validator rejects
/// anything else.
std::span<const SummaryFieldSpec> summary_field_specs();

/// Member keys of a kStats percentile object, in emission order.
std::span<const char* const> stats_member_keys();

// Per-tenant summary rows (the kTenants field; service mode, DESIGN.md
// §16).  The restricted subset has no arrays, so tenants live in an object
// keyed "t_%03d" in declaration order, mirroring the netdesign "k_%03d"
// convention.

enum class TenantFieldKind {
  kTInt,    ///< Integer-valued number (emitted %lld).
  kTReal,   ///< Real-valued number (emitted %.6f).
  kTString, ///< Non-empty string.
  kTStats,  ///< Percentile object (stats_member_keys) or null.
};

struct TenantFieldSpec {
  const char* key;
  TenantFieldKind kind;
};

/// Ordered member list of one tenant row in the summary "tenants" object.
std::span<const TenantFieldSpec> tenant_field_specs();

/// The exact timeseries CSV header row (no trailing newline).
std::string_view timeseries_csv_header();

/// Full schema validation of a summary JSON document: syntax, pinned
/// schema_version, exact key set and order, per-field kinds.
std::optional<ArtifactError> validate_summary_json(std::string_view text);

/// Timeseries CSV: exact header, 5 numeric columns per row, strictly
/// increasing hours.
std::optional<ArtifactError> validate_timeseries_csv(std::string_view text);

/// Event log: every non-empty line is a restricted-JSON object opening
/// with ("t_hours": number, "step": integer >= 0, "type": string).
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

/// Manifest: flat object with schema_version, artifact tag
/// "campaign_manifest", the scenario identity fields, and nothing else.
std::optional<ArtifactError> validate_campaign_manifest_json(
    std::string_view text);

/// Aggregate: schema_version + artifact tag "campaign_aggregate" +
/// campaign identity + a "metrics" object whose values each carry exactly
/// {mean, sd, ci95, p50, p99, min, max, count}.
std::optional<ArtifactError> validate_campaign_aggregate_json(
    std::string_view text);

/// Member keys of one aggregate metric object, in emission order.
std::span<const char* const> aggregate_metric_member_keys();

// ---------------------------------------------------------------------------
// Network-design artifacts (src/netdesign): the cost/performance Pareto
// front emitted by a budget sweep (`dgs.netdesign.v1`).  Same restricted
// JSON subset; the per-K points live in a "points" object keyed "k_%03d"
// (ascending) because the subset has no arrays.

enum class NetdesignFieldKind {
  kNInt,     ///< Integer-valued number (emitted %lld).
  kNReal,    ///< Real-valued number (emitted %.6f).
  kNBool,    ///< true / false.
  kNString,  ///< Non-empty string.
};

struct NetdesignFieldSpec {
  const char* key;
  NetdesignFieldKind kind;
};

/// Front identity fields (emitted after schema_version + the
/// "netdesign_front" tag, in this order): what pool and scenario the
/// sweep optimized over.
std::span<const NetdesignFieldSpec> netdesign_identity_specs();

/// Ordered member list of one front point.  "station_ids" is the selected
/// subset as a comma-joined ascending id list; its length must equal the
/// "stations" member.
std::span<const NetdesignFieldSpec> netdesign_point_specs();

/// Full schema validation of a netdesign front document: header, identity
/// fields, non-empty "points" object with ascending "k_NNN" keys matching
/// each point's "stations" value, exact per-point key set/order/kinds,
/// and station_ids consistency.
std::optional<ArtifactError> validate_netdesign_front_json(
    std::string_view text);

// ---------------------------------------------------------------------------
// Checkpoint artifact (src/core/checkpoint.h): the `dgs.checkpoint.v4`
// container opens with a restricted-JSON header identifying the run a
// snapshot belongs to.  The binary framing (magic line, sized sections,
// CRC) is defined in checkpoint.h; the header's key set lives here so the
// writer and the validator iterate one spec table like every other
// artifact.  The magic names the container format; schema_version inside
// the header is the repo-wide artifact generation, like every artifact.

/// Header identity fields (emitted after schema_version + the
/// "checkpoint" tag, in this order).  "finalized" records whether the
/// horizon had completed; the trailing section/payload fields pin the
/// binary framing that follows the header.
std::span<const NetdesignFieldSpec> checkpoint_header_specs();

/// Ordered payload section names of a checkpoint, the exact sequence the
/// writer emits and the reader requires.  Since v3 the "geometry" and
/// "matcher" sections are always empty.
std::span<const char* const> checkpoint_section_names();

/// Full schema validation of a checkpoint header document: artifact
/// header, exact key set/order/kinds, and range checks (positive grid,
/// step_index within [0, steps], CRC/size fields representable).
std::optional<ArtifactError> validate_checkpoint_header_json(
    std::string_view text);

}  // namespace dgs::core
