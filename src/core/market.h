// Priority-access bidding (paper §3.1: "From a ground station perspective,
// the value function can be assigned by bidding for priority access";
// §3.3: adoption "hinges on appropriate economic incentives").
//
// Operators place per-station bid multipliers; BidMatrix flattens them into
// the satellite x station SimulationOptions::value_scale table, and the
// scheduler scales an edge's base value (from Phi) by the bid the
// satellite's operator holds at that station.  Higher bids buy more
// station time — bought, not taken: the stable matching still rules out
// defection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dgs::core {

class BidMatrix {
 public:
  /// `operator_of[sat]` maps each satellite to its operator id.
  explicit BidMatrix(std::vector<int> operator_of);

  /// Sets the multiplier an operator bids at one station (> 0).
  void set_bid(int operator_id, int station, double multiplier);
  /// Sets the multiplier an operator bids network-wide.
  void set_default_bid(int operator_id, double multiplier);

  /// Effective multiplier for a satellite at a station (1.0 if unset).
  double multiplier(int sat, int station) const;

  int operator_of(int sat) const { return operator_of_.at(sat); }
  std::size_t num_satellites() const { return operator_of_.size(); }

  /// The SimulationOptions::value_scale table: multiplier(sat, station)
  /// row-major over satellites x `num_stations` stations.
  std::vector<double> value_scale(int num_stations) const;

 private:
  std::vector<int> operator_of_;
  std::map<int, double> default_bid_;                 ///< operator -> mult
  std::map<std::pair<int, int>, double> station_bid_; ///< (op, gs) -> mult
};

// --- Multi-tenant fair share (service mode, DESIGN.md §16) ------------------
//
// GSaaS framing ("The Space above the Sky", arXiv:2501.00354): many
// missions share one ground segment.  Each tenant owns a disjoint slice of
// the satellite fleet and a priority weight; the arbiter keeps delivered
// bytes proportional to the weights by scaling Phi per satellite through
// the SchedulerConfig::sat_value_scale seam.

/// One tenant (mission/customer) sharing the ground segment.
/// SimulationOptions::tenants holds these; validation requires the slices
/// to be disjoint and to cover the whole fleet.
struct TenantSpec {
  std::string name;                  ///< [a-z][a-z0-9_]*, unique per run.
  std::vector<int> satellites;       ///< Indices into the run's sat list.
  double weight = 1.0;               ///< Relative priority share (> 0).
  double sla_latency_minutes = 0.0;  ///< Latency target; 0 = none.
};

/// Deterministic deficit-weighted fair share.  Per scheduling instant the
/// driver thread refreshes one multiplier per tenant from cumulative
/// delivered bytes:
///
///   entitlement_t = w_t / sum(w)          (the target share)
///   share_t       = delivered_t / total   (entitlement when total == 0)
///   deficit_t     = 1 - share_t / entitlement_t, clamped to [-4, 1]
///   scale_t       = exp2(kDeficitGain * deficit_t)
///
/// A tenant exactly at its entitlement gets scale 1; a starved tenant's
/// edges are boosted up to 2^kDeficitGain, an over-served one damped.  All
/// arithmetic is driver-thread doubles over values that are themselves
/// bit-identical across thread counts, so the scales — and the schedules
/// they produce — stay deterministic (DESIGN.md §16).
class TenantArbiter {
 public:
  /// Fairness/efficiency knob.  Higher gain tracks entitlements tighter
  /// but spends more total throughput on the skew (the matcher picks
  /// lower-rate edges to serve starved tenants); 1.5 keeps the E27
  /// arbitration cost under the 2% budget (bench/abl_tenants).  Shares
  /// cannot reach entitlements exactly regardless of gain: a tenant's
  /// achievable bytes are capped by its own fleet's pass windows.
  static constexpr double kDeficitGain = 1.5;

  /// `tenants` as validated by SimulationOptions::validate (disjoint
  /// coverage of `num_sats` satellites, positive weights).
  TenantArbiter(std::vector<TenantSpec> tenants, int num_sats);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const TenantSpec& tenant(int t) const { return tenants_.at(t); }
  /// Owning tenant of a satellite; -1 when uncovered (pre-validation).
  int tenant_of(int sat) const { return tenant_of_.at(sat); }

  /// Recomputes the per-satellite scale vector from the running totals.
  /// Call once per scheduling instant, before schedule_instant.
  void refresh_scales();
  /// Per-satellite multipliers for SchedulerConfig::sat_value_scale; the
  /// vector's address is stable for the arbiter's lifetime.
  const std::vector<double>& sat_scale() const { return sat_scale_; }

  void record_assignment(int sat) { assignments_.at(tenant_of_.at(sat)) += 1; }
  void record_delivery(int sat, double bytes) {
    delivered_.at(tenant_of_.at(sat)) += bytes;
  }

  double delivered_bytes(int t) const { return delivered_.at(t); }
  std::int64_t assignments(int t) const { return assignments_.at(t); }
  double entitlement(int t) const { return entitlement_.at(t); }
  /// Realized share of delivered bytes (entitlement while nothing has
  /// been delivered network-wide).
  double share(int t) const;
  /// Multiplier from the last refresh_scales() (1.0 before the first).
  double scale(int t) const { return scale_.at(t); }

  /// Checkpoint serialization (core/checkpoint.h) of tenant `t`'s
  /// cumulative books, verbatim.
  template <class Ar>
  void io(Ar& ar, int t) {
    ar.f64(delivered_.at(t));
    ar.i64(assignments_.at(t));
  }

 private:
  std::vector<TenantSpec> tenants_;
  std::vector<int> tenant_of_;       ///< Per satellite; -1 = uncovered.
  std::vector<double> entitlement_;  ///< Per tenant, sums to 1.
  std::vector<double> delivered_;    ///< Cumulative bytes per tenant.
  std::vector<std::int64_t> assignments_;  ///< Cumulative slots per tenant.
  std::vector<double> scale_;        ///< Per tenant, last refresh.
  std::vector<double> sat_scale_;    ///< Per satellite, last refresh.
};

}  // namespace dgs::core
