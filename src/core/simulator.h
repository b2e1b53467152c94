// Whole-system discrete-time simulation (paper §4): its options, their
// validation, and its result.
//
// core::Session (session.h) drives the DGS scheduler over a multi-hour
// horizon: satellites generate imagery continuously, the scheduler assigns
// downlinks per step, actual weather decides whether each scheduled MODCOD
// really closes, receive-only deliveries wait for acks via
// transmit-capable contacts (§3.3), and the run collects the paper's
// metrics: per-chunk capture-to-ground latency, per-satellite
// end-of-horizon backlog, ack delays, storage high-water.  A whole run is
// Session(sats, stations, &weather, opts).run_to_end().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/faults/fault_plan.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace dgs::core {

/// A single invalid field found by SimulationOptions::validate():
/// which option is wrong and why, suitable for CLI error messages.
struct OptionsError {
  std::string field;    ///< e.g. "faults.ack_relay.loss_probability".
  std::string message;  ///< Human-readable constraint description.
};

struct SimulationOptions {
  util::Epoch start;
  double duration_hours = 24.0;
  double step_seconds = 60.0;
  /// Fault injection (robustness experiments; paper §1 calls the
  /// centralized link "a single point of failure"): scheduled/stochastic
  /// station outages, backhaul degradation, ack-relay Internet loss, and
  /// plan-upload failures, all reproducible from faults.seed.  See
  /// DESIGN.md §11.
  faults::FaultPlan faults;
  MatcherKind matcher = MatcherKind::kStable;
  ValueKind value = ValueKind::kLatency;
  /// Schedule with forecast weather (true) or assume clear sky (false,
  /// the weather-blind ablation).
  bool weather_aware = true;
  /// When true, a satellite's forecast error grows with the time since its
  /// last plan upload (transmit-capable contact) — the coupling the hybrid
  /// design introduces.  When false, plans are always fresh (lead 0).
  bool couple_forecast_to_plan_upload = true;
  /// Satellites start the horizon with this much backlog already queued
  /// (captured `initial_backlog_age_hours` ago), modelling steady state.
  double initial_backlog_bytes = 0.0;
  double initial_backlog_age_hours = 12.0;
  /// Latency-critical tier (paper §3.3 edge-compute / disaster imagery):
  /// this fraction of every satellite's production is tagged with
  /// `urgent_priority` instead of bulk priority 1.0.
  double urgent_fraction = 0.0;
  double urgent_priority = 8.0;
  /// > 0 enables the time-expanded look-ahead planner (the paper's future
  /// work): the schedule is recomputed as whole pass-block allocations
  /// every `lookahead_hours` instead of per-instant matching.  Composes
  /// with fault injection: faulted stations are excluded at plan time and
  /// the planner replans when an assigned station faults mid-window
  /// (DESIGN.md §11).
  double lookahead_hours = 0.0;
  /// > 0 models the station -> cloud backhaul (paper §3.3 edge compute):
  /// decoded data queues at the station and uploads at this rate, urgent
  /// tier first; capture-to-cloud latencies land in
  /// SimulationResult::cloud_latency_minutes.  0 = infinite backhaul.
  double station_backhaul_bps = 0.0;
  /// Antenna retarget + carrier re-lock time [s].  When a station serves a
  /// different satellite than in the previous step (or comes back from
  /// idle), the first `slew_seconds` of the quantum move no data.  The
  /// per-instant matcher is blind to this cost; the look-ahead planner
  /// avoids it by holding pass blocks (E16/E20).
  double slew_seconds = 0.0;
  /// Record the per-step timeseries (SimulationResult::timeseries) for
  /// report export; off by default to keep result objects small.
  bool collect_timeseries = false;
  /// Parallel execution of the propagation / visibility / link-budget hot
  /// loops.  The default (num_threads = 1) runs serially, preserving
  /// today's behaviour exactly; any thread count produces a bit-identical
  /// SimulationResult (see DESIGN.md §9).
  util::ParallelConfig parallel;
  /// Observability sinks (DESIGN.md §10); both are borrowed and must
  /// outlive the run.  Null (the default) disables that sink entirely.
  /// Metrics and the event log are deterministic for any thread count;
  /// trace spans (a timing artifact) are enabled separately via
  /// obs::set_trace_enabled.
  obs::Registry* metrics = nullptr;
  obs::EventLog* events = nullptr;
  /// Restrict the run to these station ids (GroundStation::id), the
  /// netdesign interchange format (`dgs_cli --stations-subset`, see
  /// groundseg::read_station_subset).  Empty (the default) runs every
  /// station passed to the Session.  Ids must be unique, non-negative,
  /// and name stations that exist; the simulator filters its station list
  /// (preserving input order) before anything else runs, so fault-plan
  /// station indices refer to the *filtered* list.
  std::vector<int> station_subset;
  /// Multi-tenant service mode (DESIGN.md §16): the fleet is partitioned
  /// across named tenants and schedule_instant arbitrates fair shares
  /// between them (TenantArbiter scaling Phi per satellite).  Empty (the
  /// default) runs single-tenant with no arbitration.  Validation:
  /// lowercase unique names, positive weights, satellite slices disjoint
  /// and covering the whole fleet; incompatible with lookahead_hours > 0
  /// (the arbiter is defined for per-instant scheduling only).
  std::vector<TenantSpec> tenants;
  /// Priority-access bids (paper §3.1, DESIGN.md §16): per-edge value
  /// multipliers, row-major satellites x stations, with station indices
  /// over the list after station_subset filtering (like fault-plan
  /// indices).  The scheduler multiplies an edge's value by
  /// value_scale[sat * num_stations + station] after Phi and any tenant
  /// scale; BidMatrix::value_scale builds the table.  Empty (the default)
  /// means every multiplier is 1.  Validation: every entry finite and
  /// > 0, size satellites x stations when both are known; incompatible
  /// with lookahead_hours > 0 (the planner scores pass blocks with Phi
  /// alone).
  std::vector<double> value_scale;

  /// Validates every field (and their combinations) in one documented
  /// place: each walked number against its Bound (walk_options), then
  /// the checks that span fields, the horizon's step count among them.
  /// Returns the first violated constraint, or nullopt when the options
  /// are runnable.  `num_stations` bounds station indices in
  /// the fault plan; pass -1 to skip those checks (e.g. before the
  /// network is built).  `station_ids` lists the available
  /// GroundStation::ids for station_subset membership checks; empty skips
  /// the membership check (uniqueness/sign are always enforced).
  /// `num_satellites` bounds tenant satellite indices and enables the
  /// fleet-coverage check; -1 skips both.  The value_scale size check
  /// needs both `num_satellites` and `num_stations`.
  std::optional<OptionsError> validate(
      int num_stations = -1, std::span<const int> station_ids = {},
      int num_satellites = -1) const;
};

/// The range validate() holds a walked number to.  Every real must also
/// be finite.
enum class Bound {
  kAny,
  kPositive,        ///< > 0
  kNonNegative,     ///< >= 0
  kUnit,            ///< in [0, 1]
  kUnitOpen,        ///< in [0, 1)
  kAtLeastOne,      ///< >= 1
  kFinitePositive,  ///< > 0, one message for both checks (weights, bids)
};

/// The one list of the options that shape a trajectory, in their hashed
/// order.  Session::options_crc32 encodes each visit, validate() checks
/// each number against its Bound, and the options fuzzer corrupts and
/// repairs fields through it.  `parallel`, `metrics` and `events` are not
/// walked: results are identical at any thread count and the sinks only
/// observe.  dgslint R10 holds every other member to the walk.
///
/// A visitor provides epoch, real, integer, choice (a flag or an
/// enumerator), seed, text and list.  Each takes the field's name; real
/// and integer also take its Bound and whether validate() checks it
/// (its guard).  list(name, items, f) calls f on each element, whose
/// names are relative to "name[i]" ("" names the element itself).
template <class V, class O>
void walk_options(V& v, O& o) {
  v.epoch("start", o.start);
  v.real("duration_hours", o.duration_hours, Bound::kPositive);
  v.real("step_seconds", o.step_seconds, Bound::kPositive);
  v.choice("matcher", o.matcher);
  v.choice("value", o.value);
  v.choice("weather_aware", o.weather_aware);
  v.choice("couple_forecast_to_plan_upload",
           o.couple_forecast_to_plan_upload);
  v.real("initial_backlog_bytes", o.initial_backlog_bytes,
         Bound::kNonNegative);
  v.real("initial_backlog_age_hours", o.initial_backlog_age_hours,
         Bound::kAny);
  v.real("urgent_fraction", o.urgent_fraction, Bound::kUnit);
  v.real("urgent_priority", o.urgent_priority, Bound::kPositive,
         o.urgent_fraction > 0.0);
  v.real("lookahead_hours", o.lookahead_hours, Bound::kNonNegative);
  v.real("station_backhaul_bps", o.station_backhaul_bps,
         Bound::kNonNegative);
  v.real("slew_seconds", o.slew_seconds, Bound::kNonNegative);
  v.choice("collect_timeseries", o.collect_timeseries);

  auto& f = o.faults;
  v.seed("faults.seed", f.seed);
  v.list("faults.outages", f.outages, [&](auto& w) {
    v.integer("station_index", w.station_index, Bound::kAny);
    v.real("start_hours", w.start_hours, Bound::kAny);
    v.real("end_hours", w.end_hours, Bound::kAny);
  });
  v.real("faults.churn.mtbf_hours", f.churn.mtbf_hours, Bound::kNonNegative);
  v.real("faults.churn.mttr_hours", f.churn.mttr_hours, Bound::kAny);
  v.real("faults.churn.station_fraction", f.churn.station_fraction,
         Bound::kUnit);
  v.list("faults.backhaul", f.backhaul, [&](auto& b) {
    v.integer("station_index", b.station_index, Bound::kAny);
    v.real("start_hours", b.start_hours, Bound::kAny);
    v.real("end_hours", b.end_hours, Bound::kAny);
    v.real("rate_multiplier", b.rate_multiplier, Bound::kUnit);
  });
  auto& ack = f.ack_relay;
  const bool lossy = ack.loss_probability > 0.0;
  v.real("faults.ack_relay.loss_probability", ack.loss_probability,
         Bound::kUnitOpen);
  v.real("faults.ack_relay.initial_backoff_s", ack.initial_backoff_s,
         Bound::kPositive, lossy);
  v.real("faults.ack_relay.backoff_multiplier", ack.backoff_multiplier,
         Bound::kAtLeastOne, lossy);
  v.real("faults.ack_relay.max_backoff_s", ack.max_backoff_s, Bound::kAny,
         lossy);
  v.integer("faults.ack_relay.max_attempts", ack.max_attempts,
            Bound::kAtLeastOne, lossy);
  v.real("faults.plan_upload.failure_probability",
         f.plan_upload.failure_probability, Bound::kUnitOpen);

  v.list("station_subset", o.station_subset,
         [&](auto& id) { v.integer("", id, Bound::kAny); });
  v.list("tenants", o.tenants, [&](auto& t) {
    v.text("name", t.name);
    v.real("weight", t.weight, Bound::kFinitePositive);
    v.real("sla_latency_minutes", t.sla_latency_minutes,
           Bound::kNonNegative);
    v.list("satellites", t.satellites,
           [&](auto& s) { v.integer("", s, Bound::kAny); });
  });
  // Visited only when set, so every run without bids keeps its CRC.
  if (!o.value_scale.empty()) {
    v.list("value_scale", o.value_scale,
           [&](auto& m) { v.real("", m, Bound::kFinitePositive); });
  }
}

/// One simulation step's aggregate state (collect_timeseries).
struct StepRecord {
  double hours = 0.0;               ///< Since simulation start (step end).
  double delivered_bytes_cum = 0.0;
  double backlog_bytes_total = 0.0; ///< Sum of queued bytes across sats.
  int active_links = 0;             ///< Assignments executed this step.
  std::int64_t failed_cum = 0;      ///< Failed assignments so far.
};

/// Checkpoint serialization (core/checkpoint.h).
template <class Ar>
void io(Ar& ar, StepRecord& r) {
  ar.f64(r.hours);
  ar.f64(r.delivered_bytes_cum);
  ar.f64(r.backlog_bytes_total);
  ar.i32(r.active_links);
  ar.i64(r.failed_cum);
}

/// Per-satellite end-of-run accounting.
struct SatelliteOutcome {
  double generated_bytes = 0.0;     ///< Captured at the sensor (attempted).
  double delivered_bytes = 0.0;
  double backlog_bytes = 0.0;       ///< Still queued (never transmitted).
  double pending_ack_bytes = 0.0;   ///< Delivered but not yet acknowledged.
  double dropped_bytes = 0.0;       ///< Lost to a full recorder.
  double storage_high_water_bytes = 0.0;
  int tx_contacts = 0;              ///< Plan-upload opportunities used.
};

/// Checkpoint serialization (core/checkpoint.h) of the accumulated fields;
/// Session::report() reads the rest off the onboard queue.
template <class Ar>
void io(Ar& ar, SatelliteOutcome& o) {
  ar.f64(o.generated_bytes);
  ar.f64(o.delivered_bytes);
  ar.f64(o.storage_high_water_bytes);
  ar.i32(o.tx_contacts);
}

/// Per-tenant end-of-run accounting (service mode); empty unless
/// SimulationOptions::tenants is configured.  Rows are in tenant
/// declaration order.
struct TenantOutcome {
  std::string name;
  double weight = 0.0;
  double sla_latency_minutes = 0.0;  ///< 0 = no target.
  int num_satellites = 0;
  double generated_bytes = 0.0;
  double delivered_bytes = 0.0;
  double backlog_bytes = 0.0;        ///< Queued on board at horizon end.
  std::int64_t assignments = 0;
  util::SampleSet latency_minutes;   ///< Per delivered chunk.
  double entitlement = 0.0;          ///< weight / sum(weights).
  double share = 0.0;                ///< delivered / total delivered.
  /// Fraction of delivered chunks within the SLA latency target (1 when
  /// no target is configured).
  double sla_attainment = 1.0;
};

struct SimulationResult {
  util::SampleSet latency_minutes;    ///< Per delivered chunk (all tiers).
  util::SampleSet urgent_latency_minutes;  ///< Chunks with priority > 1.
  util::SampleSet bulk_latency_minutes;    ///< Priority-1.0 chunks.
  util::SampleSet backlog_gb;         ///< Per satellite, end of horizon.
  util::SampleSet ack_delay_minutes;  ///< Per acknowledged batch.
  /// Capture-to-cloud latency per chunk; only populated when
  /// station_backhaul_bps > 0 (otherwise cloud == ground).
  util::SampleSet cloud_latency_minutes;
  /// Bytes still queued at stations (not yet in the cloud) at horizon end.
  double station_queued_bytes = 0.0;
  /// Per-step aggregates; empty unless collect_timeseries was set.
  std::vector<StepRecord> timeseries;
  std::vector<SatelliteOutcome> per_satellite;
  std::vector<TenantOutcome> per_tenant;  ///< Service mode only.

  double total_generated_bytes = 0.0;
  double total_delivered_bytes = 0.0;
  double total_dropped_bytes = 0.0;   ///< Lost to full recorders.
  /// Aggregate link capacity of all assigned (and closing) slots, whether
  /// or not data was available — the headline "could download X TB/day".
  double assigned_capacity_bytes = 0.0;
  std::int64_t assignments = 0;       ///< Scheduled (sat, station) slots.
  double total_matched_value = 0.0;   ///< Sum of assigned edge weights (Phi).
  std::int64_t failed_assignments = 0;  ///< Slots lost to mis-predicted SNR.
  /// Bytes transmitted into failed slots: the satellite sent them at the
  /// scheduled MODCOD but the ground captured nothing; they sit in limbo
  /// until the next TX contact reports them missing.
  double wasted_transmission_bytes = 0.0;
  /// Bytes re-queued for retransmission after a collated report.
  double requeued_bytes = 0.0;
  /// Times a station had to retarget to a new satellite (slew model on).
  std::int64_t slew_events = 0;
  /// Bytes transmitted into a contact whose station was down (fault
  /// injection): a subset of wasted_transmission_bytes, recovered via the
  /// same missing-pieces requeue loop as mis-predicted MODCODs.
  double outage_lost_bytes = 0.0;
  /// Ack-relay report attempts lost to Internet faults and retried with
  /// backoff before the report became available to a TX contact.
  std::int64_t ack_retries = 0;
  /// Look-ahead replans triggered by an assigned station faulting
  /// mid-window (scheduled window refreshes are not counted).
  std::int64_t replans = 0;
  /// TX contacts whose TT&C exchange (acks + fresh plan) failed.
  std::int64_t plan_upload_failures = 0;
  std::int64_t steps = 0;
  double mean_station_utilization = 0.0;  ///< Busy-steps / total steps.

  double delivered_fraction() const {
    return total_generated_bytes > 0.0
               ? total_delivered_bytes / total_generated_bytes
               : 0.0;
  }
};

/// The stations a run sees: `stations` restricted to `opts.station_subset`
/// (every one when it is empty), in input order.  Subset membership is
/// checked against the input ids; fault-plan indices and everything
/// downstream see only the filtered list.  Throws std::invalid_argument
/// "SimulationOptions.<field>: <message>" when `opts` is invalid for this
/// network, and a DGS_ENSURE failure when either input is empty.  The
/// Session constructor validates through it.
std::vector<groundseg::GroundStation> select_stations(
    std::vector<groundseg::GroundStation> stations,
    const SimulationOptions& opts, int num_sats);

}  // namespace dgs::core
