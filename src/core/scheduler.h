// The DGS downlink scheduler (paper §3.1).
//
// Per scheduling instant: build the contact graph (VisibilityEngine), weight
// each edge with the value function Phi applied to the data the satellite
// could move across it, then select a matching (stable by default).
//
// The scheduler keeps no counts of its own: a Session derives the
// dgs_sched_* families from its steps and assignments (DESIGN.md §10).
#pragma once

#include <memory>

#include "src/core/market.h"
#include "src/core/matching.h"
#include "src/core/value.h"
#include "src/core/visibility.h"

namespace dgs::core {

struct SchedulerConfig {
  MatcherKind matcher = MatcherKind::kStable;
  ValueKind value = ValueKind::kLatency;
  /// Length of one scheduling quantum; converts edge rate to edge bytes.
  double quantum_seconds = 60.0;
  /// Optional per-satellite value multipliers applied after Phi: the
  /// tenant fair-share arbiter (TenantArbiter) points this at its scale
  /// vector.  Borrowed; the driver thread may rewrite the contents between
  /// instants, but they are fixed during one schedule_instant call and
  /// read per-index, so the parallel weigh path stays bit-identical to
  /// serial.  Size must be >= the engine's satellite count.
  const std::vector<double>* sat_value_scale = nullptr;
  /// Optional per-edge multipliers applied after sat_value_scale:
  /// SimulationOptions::value_scale (bidding, BidMatrix::value_scale),
  /// row-major satellites x stations.  Borrowed and read-only; size must
  /// be the engine's satellite count times its station count.
  const std::vector<double>* value_scale = nullptr;
};

class Scheduler {
 public:
  /// The engine is borrowed and must outlive the scheduler.
  Scheduler(const VisibilityEngine* engine, const SchedulerConfig& config);

  /// Computes the downlink assignments for instant `when`.
  /// `queues` holds each satellite's onboard buffer (size == num_sats);
  /// `forecast_lead_s` is each satellite's plan staleness (may be empty);
  /// `station_down` optionally marks failed stations.  Returned edges have
  /// `weight` filled in; at most one per satellite and at most
  /// `beam_count` per station.
  std::vector<ContactEdge> schedule_instant(
      const util::Epoch& when, const std::vector<OnboardQueue>& queues,
      std::span<const double> forecast_lead_s = {},
      std::span<const char> station_down = {}) const;

  const SchedulerConfig& config() const { return config_; }
  const ValueFunction& value_function() const { return *value_; }

 private:
  const VisibilityEngine* engine_;
  SchedulerConfig config_;
  std::unique_ptr<ValueFunction> value_;
  /// Per-station matching capacity: max(1, beam_count).
  std::vector<int> capacities_;
};

}  // namespace dgs::core
