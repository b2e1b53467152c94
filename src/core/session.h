// Steppable simulation session (service mode, DESIGN.md §16).
//
// core::Session is the stateful heart of the simulator: it owns every piece
// of mutable per-run state that Simulator::run() used to keep in locals —
// onboard queues, station edge queues, the horizon plan, fault masks, the
// warm-start matcher, contact lifecycle tracking, the result accumulators —
// and exposes the run as an explicit state machine:
//
//   * step() advances exactly one scheduling quantum;
//   * report() renders a full SimulationResult at ANY point mid-run;
//   * snapshot()/restore() round-trip the whole session through the
//     versioned `dgs.checkpoint.v1` artifact (checkpoint.h) such that a
//     restored run's remaining steps — Report, Prometheus exposition, and
//     event JSONL — are byte-identical to an uninterrupted run, at any
//     thread count.  Both directions run through one serializer,
//     io_section(), built from one io() per serialized struct; a member
//     added to the mutable state below must be added there too;
//   * multi-tenant fair-share arbitration (SimulationOptions::tenants,
//     TenantArbiter) with per-tenant accounting and metrics.
//
// Simulator (simulator.h) survives as the run-to-completion convenience
// wrapper: Simulator::run() == Session(...).run_to_end().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/backend/station_edge.h"
#include "src/core/lookahead.h"
#include "src/core/simulator.h"
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

  /// Writes a complete `dgs.checkpoint.v1` snapshot of the session.
  void snapshot(std::ostream& out) const;

  /// Reconstructs a session from a snapshot.  The scenario inputs must
  /// match the snapshotting run (satellites, stations, weather, options up
  /// to execution-irrelevant fields — thread count and observability
  /// sinks); mismatches are rejected via the header identity and
  /// options_crc32().  Throws std::invalid_argument on a malformed or
  /// mismatched checkpoint.
  static std::unique_ptr<Session> restore(
      std::istream& in, std::vector<groundseg::SatelliteConfig> sats,
      std::vector<groundseg::GroundStation> stations,
      const weather::WeatherProvider* actual_weather,
      const SimulationOptions& opts);

  /// CRC32 over the canonical encoding of every option that affects the
  /// simulated trajectory.  Excluded on purpose: `parallel` (any thread
  /// count produces identical results — restoring under a different count
  /// is the point), the metrics/events sinks, and edge_value_modifier
  /// (opaque callable; runs using it cannot assert checkpoint identity
  /// on it).
  std::uint32_t options_crc32() const;

 private:
  struct SimMetrics {
    obs::Counter* generated_bytes = nullptr;
    obs::Counter* delivered_bytes = nullptr;
    obs::Counter* dropped_bytes = nullptr;
    obs::Counter* wasted_bytes = nullptr;
    obs::Counter* requeued_bytes = nullptr;
    obs::Counter* assignments = nullptr;
    obs::Counter* failed_assignments = nullptr;
    obs::Counter* slew_events = nullptr;
    obs::Counter* steps = nullptr;
    obs::Counter* ack_batches = nullptr;
    obs::Counter* plan_uploads = nullptr;
    obs::Counter* backhaul_received = nullptr;
    obs::Counter* backhaul_uploaded = nullptr;
    obs::Gauge* backlog_bytes = nullptr;
    obs::Gauge* pending_ack_bytes = nullptr;
    obs::Gauge* station_queued_bytes = nullptr;
    obs::Histogram* latency_minutes = nullptr;
  };
  struct FaultMetrics {
    obs::Counter* outage_transitions = nullptr;
    obs::Counter* outage_lost_bytes = nullptr;
    obs::Counter* ack_retries = nullptr;
    obs::Counter* replans = nullptr;
    obs::Counter* plan_upload_failures = nullptr;
    obs::Counter* backhaul_degraded_steps = nullptr;
    obs::Gauge* stations_down = nullptr;
  };
  /// Per-tenant series, indexed by tenant declaration order; empty unless
  /// both a registry and tenants are configured.
  struct TenantMetrics {
    std::vector<obs::Counter*> delivered;
    std::vector<obs::Counter*> assignments;
    std::vector<obs::Gauge*> share;
  };
  /// Contact lifecycle tracking for the event log.
  struct OpenContact {
    const link::ModCod* modcod = nullptr;
    int held_steps = 0;
    std::int64_t last_step = -1;

    template <class Ar>
    friend void io(Ar& ar, OpenContact& c) {
      link::io_modcod(ar, c.modcod);
      ar.i32(c.held_steps);
      ar.i64(c.last_step);
    }
  };

  void register_metrics();
  /// End-of-horizon bookkeeping; idempotent.
  void finalize();
  double realized_rate_bps(const ContactEdge& e,
                           const util::Epoch& when) const;
  /// Applies a validated checkpoint buffer to this (freshly constructed)
  /// session.  Throws std::invalid_argument on any mismatch.
  void apply_checkpoint(std::string_view data);
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
  bool station_faults_ = false;
  bool backhaul_faults_ = false;

  // --- Fixed machinery -----------------------------------------------------
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<VisibilityEngine> engine_;
  std::unique_ptr<Scheduler> scheduler_;
  std::optional<faults::FaultTimeline> timeline_;
  std::optional<TenantArbiter> arbiter_;
  SimMetrics om_;
  FaultMetrics fm_;
  TenantMetrics tm_;
  obs::EventLog* events_ = nullptr;

  // --- Mutable per-run state (everything snapshot() serializes) ------------
  std::map<std::pair<int, int>, OpenContact> open_contacts_;
  std::vector<char> down_;              ///< Scratch, refilled each step.
  std::vector<char> prev_down_;
  std::vector<double> prev_backhaul_mult_;
  std::uint64_t cache_hits_prev_ = 0;
  std::uint64_t cache_misses_prev_ = 0;
  std::vector<OnboardQueue> queues_;
  std::vector<util::Epoch> last_plan_;
  std::vector<std::int64_t> station_busy_;
  std::vector<double> leads_;           ///< Scratch, refilled each step.
  std::vector<int> prev_served_;
  std::vector<backend::StationEdgeQueue> edge_queues_;
  HorizonPlan plan_;
  std::int64_t plan_origin_ = -1;
  std::vector<util::SampleSet> tenant_latency_;
  std::vector<std::int64_t> tenant_sla_ok_;
  SimulationResult res_;                ///< Accumulators; derived fields
                                        ///< are filled by report().
  std::int64_t step_ = 0;
  bool finalized_ = false;
};

}  // namespace dgs::core
