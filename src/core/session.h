// Steppable simulation session (service mode, DESIGN.md §16).
//
// core::Session is the stateful heart of the simulator: it owns every piece
// of mutable per-run state that Simulator::run() used to keep in locals —
// onboard queues, station edge queues, the horizon plan, fault masks,
// contact lifecycle tracking, the result accumulators — and exposes the
// run as an explicit state machine:
//
//   * step() advances exactly one scheduling quantum;
//   * report() renders a full SimulationResult at ANY point mid-run;
//   * snapshot()/restore() round-trip the whole session through the
//     versioned `dgs.checkpoint.v4` artifact (checkpoint.h) such that a
//     restored run's remaining steps — Report, Prometheus exposition, and
//     event JSONL — are byte-identical to an uninterrupted run, at any
//     thread count.  Both directions run through one serializer,
//     io_section(), built from one io() per serialized struct; a member
//     added to the mutable state below must be added there too;
//   * multi-tenant fair-share arbitration (SimulationOptions::tenants,
//     TenantArbiter) with per-tenant accounting and metrics.
//
// Each run fact is kept in one ledger (DESIGN.md §10, §16): `res_`, one
// record per delivered chunk, the cloud and ack delay ledgers (each delay
// a whole-step age, step_ages.h), the queues' and the arbiter's books.
// report() derives every other figure, and publish_metrics() sets the
// Prometheus families from those ledgers after every step.
//
// Simulator (simulator.h) survives as the run-to-completion convenience
// wrapper: Simulator::run() == Session(...).run_to_end().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/backend/station_edge.h"
#include "src/core/lookahead.h"
#include "src/core/simulator.h"
#include "src/core/step_ages.h"
#include "src/link/dvbs2_framing.h"
#include "src/obs/events.h"

namespace dgs::core {

class Session {
 public:
  /// Same contract as the Simulator constructor: `actual_weather` decides
  /// transmission outcomes (nullptr = permanently clear skies), the
  /// station-subset restriction is applied before anything else, and
  /// invalid options throw std::invalid_argument rendering the
  /// OptionsError.
  Session(std::vector<groundseg::SatelliteConfig> sats,
          std::vector<groundseg::GroundStation> stations,
          const weather::WeatherProvider* actual_weather,
          const SimulationOptions& opts);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int num_satellites() const { return num_sats_; }
  int num_stations() const { return num_stations_; }
  std::int64_t step_index() const { return step_; }
  std::int64_t num_steps() const { return steps_; }
  bool done() const { return step_ >= steps_; }
  /// True once end-of-horizon bookkeeping (open-contact flush, final
  /// dropped-bytes metrics, conservation audit) has run.
  bool finalized() const { return finalized_; }

  /// Advances exactly one scheduling quantum.  Throws when done().
  /// The final step additionally finalizes the session.
  void step();

  /// Steps until the sim clock reaches `t_hours` (or the horizon ends);
  /// returns the number of steps executed.
  std::int64_t run_until_hours(double t_hours);

  /// Steps to the end of the horizon and returns the final report.
  /// A fresh session's run_to_end() is exactly Simulator::run().
  SimulationResult run_to_end();

  /// Renders the full result at the CURRENT step.  Callable mid-run: the
  /// derived figures (per-satellite backlog, dropped totals, utilization,
  /// per-tenant rows) are computed against the live state, and calling it
  /// does not perturb the run.
  SimulationResult report() const;

  /// Writes a complete `dgs.checkpoint.v4` snapshot of the session.
  void snapshot(std::ostream& out) const;

  /// Reconstructs a session from a snapshot.  The scenario inputs must
  /// match the snapshotting run (satellites, stations, weather, options up
  /// to execution-irrelevant fields — thread count and observability
  /// sinks); mismatches are rejected via the header identity and
  /// options_crc32().  Throws std::invalid_argument on a malformed or
  /// mismatched checkpoint, or one in another format version.  Nothing is
  /// published into `opts.metrics` until the checkpoint has been applied.
  static std::unique_ptr<Session> restore(
      std::istream& in, std::vector<groundseg::SatelliteConfig> sats,
      std::vector<groundseg::GroundStation> stations,
      const weather::WeatherProvider* actual_weather,
      const SimulationOptions& opts);

  /// CRC32 over the canonical encoding of every option that affects the
  /// simulated trajectory.  Excluded on purpose: `parallel` (any thread
  /// count produces identical results — restoring under a different count
  /// is the point) and the metrics/events sinks.  `value_scale` is
  /// appended only when non-empty, so runs without bids keep the CRC they
  /// had before the table existed.
  std::uint32_t options_crc32() const;

 private:
  /// The five families with no other ledger, updated where their events
  /// happen (DESIGN.md §10); the fault pair needs a fault plan.
  struct LiveMetrics {
    obs::Counter* backhaul_received = nullptr;
    obs::Counter* backhaul_uploaded = nullptr;
    obs::Histogram* latency_minutes = nullptr;
    obs::Counter* outage_transitions = nullptr;
    obs::Counter* backhaul_degraded_steps = nullptr;
  };
  /// Contact lifecycle tracking for the event log (kept with or without
  /// a log, so a checkpoint carries it either way).
  struct OpenContact {
    int station = 0;
    const link::ModCod* modcod = nullptr;
    int held_steps = 0;
    std::int64_t last_step = -1;

    template <class Ar>
    friend void io(Ar& ar, OpenContact& c) {
      ar.i32(c.station);
      link::io_modcod(ar, c.modcod);
      ar.i32(c.held_steps);
      ar.i64(c.last_step);
    }
  };
  /// restore() passes `publish` = false: its registry may be shared with a
  /// live session until the checkpoint has been applied.
  Session(std::vector<groundseg::SatelliteConfig> sats,
          std::vector<groundseg::GroundStation> stations,
          const weather::WeatherProvider* actual_weather,
          const SimulationOptions& opts, bool publish);

  /// Closes every contact not assigned at `step`, logging the closes in
  /// (satellite, station) order.
  void close_contacts(std::int64_t step);
  /// Registers and sets every published family from its one ledger; a
  /// no-op without a registry.  Runs after each step (the last one after
  /// finalize()) and after a checkpoint is applied.
  void publish_metrics();
  /// End-of-horizon bookkeeping; idempotent.
  void finalize();
  /// Bytes still queued at the station edges (not yet in the cloud).
  double station_queued_bytes() const;
  double realized_rate_bps(const ContactEdge& e,
                           const util::Epoch& when) const;
  /// The epoch a delay starting at step `c` starts at: step c's start, or
  /// the initial-backlog epoch for c = -1.
  util::Epoch start_epoch(std::int64_t c) const;
  /// The inverse of start_epoch() for a capture epoch.
  std::int64_t capture_step(const util::Epoch& capture) const;
  /// When data uploaded from the station edges during `step` reaches the
  /// cloud: the end of the step.
  util::Epoch upload_epoch(std::int64_t step) const;
  /// Records in `ledger` a delay of `minutes` that started at step `c` and
  /// ended at `end`, recorded at the current step.  With DCHECKs on, the
  /// minutes report() derives from the entry must equal `minutes`.
  void record_delay(StepAges& ledger, std::int64_t c, const util::Epoch& end,
                    double minutes);
  /// Applies a validated checkpoint buffer to this (freshly constructed)
  /// session.  Throws std::invalid_argument on any mismatch.
  /// `registry_was_empty`: opts_.metrics held no series before this
  /// session was constructed, so the restored registry must re-snapshot
  /// to the checkpoint's metrics section exactly.
  void apply_checkpoint(std::string_view data, bool registry_was_empty);
  /// The one serializer of checkpoint section `name`: writes it through a
  /// BinaryWriter (snapshot) or reads it back through a BinaryReader
  /// (apply_checkpoint).
  template <class Ar>
  void io_section(Ar& ar, std::string_view name);

  // --- Immutable run inputs ------------------------------------------------
  std::vector<groundseg::SatelliteConfig> sats_;
  std::vector<groundseg::GroundStation> stations_;
  const weather::WeatherProvider* actual_wx_;
  SimulationOptions opts_;
  const obs::StepClock clock_;

  // --- Derived configuration (fixed after construction) --------------------
  int num_sats_ = 0;
  int num_stations_ = 0;
  double dt_ = 0.0;
  std::int64_t steps_ = 0;
  int plan_window_steps_ = 0;
  /// The initial backlog's capture epoch, step -1 of the delay ledgers.
  util::Epoch backlog_epoch_;
  bool station_faults_ = false;
  bool backhaul_faults_ = false;

  // --- Fixed machinery -----------------------------------------------------
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<VisibilityEngine> engine_;
  std::unique_ptr<Scheduler> scheduler_;
  std::optional<faults::FaultTimeline> timeline_;
  std::optional<TenantArbiter> arbiter_;
  LiveMetrics live_;
  obs::EventLog* events_ = nullptr;
  /// Planner instants' geometry, reused across windows.  Not checkpointed:
  /// reuse is exact, so a restored session starting cold is identical.
  PlanGeometry plan_geometry_;

  // --- Mutable per-run state (everything snapshot() serializes) ------------
  /// Per satellite, ascending by station.
  std::vector<std::vector<OpenContact>> open_contacts_;
  std::vector<char> down_;              ///< Scratch, refilled each step.
  std::vector<char> prev_down_;
  std::vector<double> prev_backhaul_mult_;
  std::vector<OnboardQueue> queues_;
  std::vector<util::Epoch> last_plan_;
  std::vector<double> leads_;           ///< Scratch, refilled each step.
  std::vector<int> prev_served_;
  std::vector<backend::StationEdgeQueue> edge_queues_;
  HorizonPlan plan_;
  std::int64_t plan_origin_ = -1;
  // Every delivered chunk, once, in delivery order (one column per field):
  // report() rebuilds the latency splits from them, and record order
  // keeps SampleSet::mean() bit-identical.
  StepAges delivered_;                  ///< Capture to ground.
  std::vector<std::uint32_t> delivered_sat_;
  std::vector<std::uint8_t> delivered_urgent_;  ///< Priority > 1.
  StepAges cloud_;                      ///< Capture to cloud, per item.
  StepAges acks_;                       ///< Sent to acked, per batch.
  SimulationResult res_;                ///< Accumulators; the delay
                                        ///< samples and derived fields are
                                        ///< filled by report().
  std::int64_t step_ = 0;
  bool finalized_ = false;
};

}  // namespace dgs::core
