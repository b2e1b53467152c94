// Structured event log: one JSON object per line (JSONL), recording the
// per-contact lifecycle of a simulation run — contact open/close, MODCOD
// selection, bytes moved, ack relays, plan uploads, station outages, and
// backhaul activity.  The schema (stable keys, one example line per
// event type) is documented in DESIGN.md §10.
//
// Timestamps: every event carries the *end-of-step* simulation time of the
// step it happened in, computed by the same StepClock the timeseries
// exporter uses, so the JSONL and the timeseries CSV join exactly on
// (step, t_hours) with no off-by-one-step drift.  Events are emitted only
// from the simulation driver thread, which makes the log deterministic for
// any thread count (DESIGN.md §9).
//
// Byte quantities are printed round-trip exactly (%.17g): the log is a
// ledger, and tests/test_obs_reconcile.cpp balances it against the Report
// aggregates to the last bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "src/util/time.h"

namespace dgs::obs {

/// The single source of step timestamps, shared by SimulationResult
/// timeseries collection and the event log.  Step k covers the sim-time
/// interval [k*dt, (k+1)*dt); its record/event timestamp is the interval
/// end, in hours since the simulation start.
class StepClock {
 public:
  StepClock(const util::Epoch& start, double step_seconds)
      : start_(start), step_seconds_(step_seconds) {}

  double end_hours(std::int64_t step) const {
    return static_cast<double>(step + 1) * step_seconds_ / 3600.0;
  }
  util::Epoch step_start(std::int64_t step) const {
    return start_.plus_seconds(static_cast<double>(step) * step_seconds_);
  }
  double step_seconds() const { return step_seconds_; }

 private:
  util::Epoch start_;
  double step_seconds_;
};

/// JSONL writer.  Construct with a sink (borrowed; must outlive the log) or
/// nullptr for a disabled log whose emitters cost one branch.  Not
/// thread-safe: emit only from the simulation driver thread.
class EventLog {
 public:
  explicit EventLog(std::ostream* out = nullptr) : out_(out) {}

  bool enabled() const { return out_ != nullptr; }

  /// Stamps every subsequent event with (step, t_hours); the simulator
  /// calls this once at the top of each step with StepClock::end_hours.
  void begin_step(std::int64_t step, double t_hours) {
    step_ = step;
    t_hours_ = t_hours;
  }

  // --- Event emitters (no-ops when disabled) -------------------------------

  /// A (sat, station) pair entered the assigned set.
  void contact_open(int sat, int station, std::string_view modcod,
                    double rate_bps, double elevation_deg);
  /// The pair left the assigned set after `held_steps` consecutive steps.
  void contact_close(int sat, int station, int held_steps);
  /// The scheduled MODCOD for an open contact changed mid-pass.
  void modcod_selected(int sat, int station, std::string_view modcod,
                       double rate_bps);
  /// One executed assignment: `bytes` left the satellite queue; `received`
  /// says whether the ground captured them (false = mis-predicted MODCOD).
  void bytes_moved(int sat, int station, double bytes, bool received);
  /// Collated report at a transmit-capable contact.
  void ack_relayed(int sat, int station, double acked_bytes,
                   double requeued_bytes, int batches);
  /// Fresh plan uploaded; `lead_s` is the staleness it replaced.
  void plan_uploaded(int sat, int station, double lead_s);
  void outage_begin(int station);
  void outage_end(int station);
  /// Bytes transmitted into a faulted station's dead contact (a subset of
  /// the matching bytes_moved event's non-received bytes).
  void outage_loss(int sat, int station, double bytes);
  /// The station's report upload was lost `retries` times and retried
  /// with backoff, delaying the batch verdict by `delay_s`.
  void ack_relay_retry(int sat, int station, int retries, double delay_s);
  /// The TT&C exchange (acks + fresh plan) at a TX contact failed.
  void plan_upload_failed(int sat, int station);
  /// The look-ahead planner re-scored the remaining horizon because
  /// assigned `station` faulted; the new plan covers `window_steps`.
  void replan(int station, int window_steps);
  /// Station `station`'s backhaul degraded to `multiplier` x nominal
  /// (0 = blackout) / recovered to nominal.
  void backhaul_fault_begin(int station, double multiplier);
  void backhaul_fault_end(int station);
  /// Station-side backhaul activity for this step (aggregate over
  /// stations): bytes newly queued at edges and bytes uploaded to cloud.
  void backhaul_step(double received_bytes, double uploaded_bytes,
                     double queued_bytes);

 private:
  /// Writes the line prefix {"t_hours":...,"step":...,"type":"<type>" and
  /// returns the sink for the caller to append fields and finish.
  std::ostream& begin_line(const char* type);

  std::ostream* out_;
  std::int64_t step_ = 0;
  double t_hours_ = 0.0;
};

}  // namespace dgs::obs
