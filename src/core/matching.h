// Bipartite matching between satellites and ground stations (paper §3.1).
//
// At each scheduling instant the contact graph is bipartite: satellites on
// one side, stations on the other, an edge where a downlink is feasible,
// weighted by the value function.  Each satellite holds at most one link;
// each station holds at most its capacity, one entry per station in
// `capacities`.  Unit capacities are the paper's point-to-point case (the
// schedule is a one-to-one matching); a beamforming station (§3.3) splits
// its aperture across up to `beam_count` satellites, the caller folding the
// per-beam gain penalty into the edge weights, which makes the schedule the
// hospitals/residents variant.  Three algorithms, each over capacities:
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

/// Indices into the input edge vector, at most one per satellite and at
/// most `capacities[g]` on station g.
using Matching = std::vector<int>;

// Every matcher takes `capacities.size()` as the station count and rejects
// negative capacities and out-of-range edge endpoints.

/// Gale-Shapley stable matching, satellites proposing: a station holds its
/// `capacity` best proposals and trades its worst one up.  O(E log E + E)
/// at unit capacities.  The result lists stations in ascending order, each
/// station's edges in the order it took them.
Matching stable_matching(const std::vector<Edge>& edges, int num_sats,
                         const std::vector<int>& capacities);

/// Maximum-total-weight matching via the Hungarian algorithm with
/// potentials, over one slot per unit of station capacity: O(K^3) for K =
/// max(satellites, slots) among the nodes that carry a positive edge.
Matching optimal_matching(const std::vector<Edge>& edges, int num_sats,
                          const std::vector<int>& capacities);

/// Greedy: repeatedly take the heaviest edge whose satellite is free and
/// whose station has capacity left.
Matching greedy_matching(const std::vector<Edge>& edges, int num_sats,
                         const std::vector<int>& capacities);

/// Sum of weights of the selected edges.
double matching_value(const std::vector<Edge>& edges, const Matching& m);

/// True if no unmatched-but-feasible pair (s, g) exists where s would
/// strictly gain by switching to g and g has spare capacity or strictly
/// prefers s to its worst held satellite.  (The weak stability Gale-Shapley
/// guarantees.)
bool is_stable(const std::vector<Edge>& edges, const Matching& m,
               int num_sats, const std::vector<int>& capacities);

/// Full audit of a computed matching — the "Matching::validate()" contract
/// the scheduler runs (under DGS_DCHECK) on every result.  Rejects edge
/// indices out of range, non-positive selected weights, double-booked
/// satellites and stations over capacity; with `require_stable`
/// additionally audits is_stable.  Returns an empty string when valid,
/// else a description of the first violation found.
std::string validate_matching(const std::vector<Edge>& edges,
                              const Matching& m, int num_sats,
                              const std::vector<int>& capacities,
                              bool require_stable = true);

enum class MatcherKind { kStable, kOptimal, kGreedy };
std::string_view matcher_name(MatcherKind kind);

Matching run_matcher(MatcherKind kind, const std::vector<Edge>& edges,
                     int num_sats, const std::vector<int>& capacities);

}  // namespace dgs::core
