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

#include <string>
#include <string_view>
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
