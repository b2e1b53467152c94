// Bipartite matching between satellites and ground stations (paper §3.1).
//
// At each scheduling instant the contact graph is bipartite: satellites on
// one side, stations on the other, an edge where a downlink is feasible,
// weighted by the value function.  Stations support point-to-point links
// only, so the schedule is a matching.  Three algorithms are provided:
//
//   * Gale-Shapley stable matching — the paper's choice: in a fragmented
//     network no satellite-station pair can defect to a link both prefer.
//   * Maximum-weight matching (Hungarian algorithm) — the "optimal" global
//     alternative the paper discusses and rejects; kept for the ablation.
//   * Greedy descending-weight — the cheap baseline.
//
// Preferences on both sides derive from the edge weights (ties broken by
// index), which makes the stable matching unique (Gale-Shapley proposer
// optimality coincides with receiver optimality for aligned preferences).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dgs::core {

/// One feasible satellite-station link at a scheduling instant.
struct Edge {
  int sat = 0;
  int station = 0;
  double weight = 0.0;  ///< Value of serving this edge; <= 0 edges ignored.
};

/// Indices into the input edge vector, at most one per satellite and one
/// per station.
using Matching = std::vector<int>;

/// Gale-Shapley stable matching, satellites proposing.  O(E log E + E).
Matching stable_matching(const std::vector<Edge>& edges, int num_sats,
                         int num_stations);

/// Maximum-total-weight matching via the Hungarian algorithm with
/// potentials, O(K^3) for K = max(num_sats, num_stations).
Matching optimal_matching(const std::vector<Edge>& edges, int num_sats,
                          int num_stations);

/// Greedy: repeatedly take the heaviest edge whose endpoints are free.
Matching greedy_matching(const std::vector<Edge>& edges, int num_sats,
                         int num_stations);

/// Sum of weights of the selected edges.
double matching_value(const std::vector<Edge>& edges, const Matching& m);

/// True if no unmatched-but-feasible pair (s, g) exists where both s and g
/// would strictly gain by abandoning their assignment for each other.
/// (The stability property Gale-Shapley guarantees.)
bool is_stable(const std::vector<Edge>& edges, const Matching& m,
               int num_sats, int num_stations);

/// Full audit of a computed matching — the "Matching::validate()" contract
/// the scheduler runs (under DGS_DCHECK) on every result.  Rejects edge
/// indices out of range, non-positive selected weights, and double-booked
/// satellites or stations; with `require_stable` additionally audits weak
/// stability against the weight-derived Gale-Shapley preference order.
/// Returns an empty string when valid, else a description of the first
/// violation found.
std::string validate_matching(const std::vector<Edge>& edges,
                              const Matching& m, int num_sats,
                              int num_stations, bool require_stable = true);

/// Capacitated-market variant: stations may hold up to their capacity,
/// satellites at most one link.
std::string validate_b_matching(const std::vector<Edge>& edges,
                                const Matching& m, int num_sats,
                                const std::vector<int>& capacities,
                                bool require_stable = true);

enum class MatcherKind { kStable, kOptimal, kGreedy };
std::string_view matcher_name(MatcherKind kind);

Matching run_matcher(MatcherKind kind, const std::vector<Edge>& edges,
                     int num_sats, int num_stations);

// --- Warm-start stable matching (constellation scale, DESIGN.md §14) --------
//
// Consecutive scheduling instants share most of their contact graph: a
// pass lasts many quanta, so the previous instant's assignment is usually
// still stable under the new weights.  Because preferences on both sides
// derive from the same edge weight (ties by index), the stable matching is
// UNIQUE — so any matching that passes the validity + stability audit IS
// the Gale-Shapley result, and can be returned without running deferred
// acceptance at all.
//
// WarmStartMatcher exploits this in two tiers, both exact:
//   1. Reuse: map the previous instant's (sat, station) pairs onto the new
//      edge set (dropping vanished pairs) and audit the candidate in O(E).
//      If it is stable, return it directly.
//   2. Proposal-pointer carryover: when reuse fails, run Gale-Shapley, but
//      seed each satellite's preference list with the previous instant's
//      station order, verified against the new weights by one O(d)
//      adjacent-pair sweep per satellite; only lists whose order actually
//      changed are re-sorted.
// Duplicate (sat, station) edges in the input force a plain cold start
// (tier 2 with no carryover): duplicate ties make the edge-index choice
// ambiguous.  In every case the returned matching — indices and order —
// is identical to stable_matching(edges, ...), which tests pin.
class WarmStartMatcher {
 public:
  /// Exactly stable_matching(edges, num_sats, num_stations), warm-started
  /// from the previous call.  Stateful: NOT thread-safe; call from the
  /// thread driving the simulation.
  Matching match(const std::vector<Edge>& edges, int num_sats,
                 int num_stations);

  /// Forget the previous instant (e.g. after a constellation change).
  void reset();

  std::int64_t warm_hits() const { return warm_hits_; }
  std::int64_t cold_starts() const { return cold_starts_; }
  /// Satellites whose preference order was carried over across all cold
  /// starts (vs re-sorted).
  std::int64_t order_reuses() const { return order_reuses_; }

  /// Checkpoint serialization (core/checkpoint.h).  The carried-over
  /// state decides warm vs cold on the next instant, which feeds the
  /// dgs_sched_warm_hits/cold_starts counters — so a resumed run must
  /// restore it for metrics byte-equality.  stamp_/slot_ are per-call
  /// scratch and excluded.  On read, every carried satellite and station
  /// index must lie in the fleet the next match() is called with.
  template <class Ar>
  void io(Ar& ar, int num_sats, int num_stations) {
    ar.seq(prev_pairs_, [&](auto& a, std::pair<int, int>& p) {
      a.i32(p.first);
      a.i32(p.second);
      a.check_index(p.first, num_sats);
      a.check_index(p.second, num_stations);
    });
    ar.seq(prev_order_, [&](auto& a, std::vector<int>& order) {
      a.seq(order, [&](auto& b, int& g) {
        b.i32(g);
        b.check_index(g, num_stations);
      });
    });
    ar.i64(warm_hits_);
    ar.i64(cold_starts_);
    ar.i64(order_reuses_);
  }

 private:
  Matching cold_start(const std::vector<Edge>& edges, int num_sats,
                      int num_stations,
                      const std::vector<std::vector<int>>& by_sat,
                      bool allow_carryover);

  /// Previous result as (sat, station) pairs, station-ascending.
  std::vector<std::pair<int, int>> prev_pairs_;
  /// Previous per-satellite preference order (station ids, best first).
  std::vector<std::vector<int>> prev_order_;
  std::int64_t warm_hits_ = 0;
  std::int64_t cold_starts_ = 0;
  std::int64_t order_reuses_ = 0;
  /// Scratch: per-station stamp/edge-slot used while scanning one
  /// satellite's candidates (stamp == sat id marks validity).
  std::vector<int> stamp_;
  std::vector<int> slot_;
};

// --- Beamforming extension (paper §3.3) -------------------------------------
//
// A beamforming ground station can split its aperture across up to
// `capacity` satellites simultaneously (each beam at reduced gain; the
// caller folds that penalty into the edge weights).  Scheduling becomes a
// one-to-many matching: satellites still hold at most one link, stations
// hold up to their capacity.  This is the hospitals/residents variant of
// stable matching.

/// Gale-Shapley with per-station capacities (`capacities.size() ==
/// num_stations`, entries >= 0).  A station holds its `capacity` best
/// proposals and trades up.  Stability: no satellite and station with free
/// capacity (or a strictly worse held satellite) both prefer each other.
Matching stable_b_matching(const std::vector<Edge>& edges, int num_sats,
                           const std::vector<int>& capacities);

/// Greedy descending-weight with per-station capacities.
Matching greedy_b_matching(const std::vector<Edge>& edges, int num_sats,
                           const std::vector<int>& capacities);

/// Stability check for the capacitated market.
bool is_stable_b_matching(const std::vector<Edge>& edges, const Matching& m,
                          int num_sats, const std::vector<int>& capacities);

}  // namespace dgs::core
