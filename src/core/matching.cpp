#include "src/core/matching.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/util/check.h"

namespace dgs::core {
namespace {

void validate(const std::vector<Edge>& edges, int num_sats,
              const std::vector<int>& capacities) {
  const auto num_stations = static_cast<int>(capacities.size());
  DGS_ENSURE(num_sats >= 0, "sats=" << num_sats);
  for (int c : capacities) {
    DGS_ENSURE(c >= 0, "station capacity=" << c);
  }
  for (const Edge& e : edges) {
    DGS_ENSURE(e.sat >= 0 && e.sat < num_sats && e.station >= 0 &&
                   e.station < num_stations,
               "edge endpoint out of range: sat=" << e.sat << " station="
                                                  << e.station);
  }
}

/// Deterministic preference order: higher weight first, then lower partner
/// index.  Used identically on both sides of the market.
bool prefers(double w_new, int idx_new, double w_old, int idx_old) {
  if (w_new != w_old) return w_new > w_old;
  return idx_new < idx_old;
}

}  // namespace

Matching stable_matching(const std::vector<Edge>& edges, int num_sats,
                         const std::vector<int>& capacities) {
  validate(edges, num_sats, capacities);
  const auto num_stations = static_cast<int>(capacities.size());

  // Candidate edges per satellite, best-first.
  std::vector<std::vector<int>> prefs(num_sats);
  for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
    if (edges[i].weight > 0.0) prefs[edges[i].sat].push_back(i);
  }
  for (auto& list : prefs) {
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      return prefers(edges[a].weight, edges[a].station, edges[b].weight,
                     edges[b].station);
    });
  }

  // Station g holds its edges in slots [offset[g], offset[g + 1]), filled
  // from the front in the order it took them; -1 marks a free slot.
  std::vector<int> offset(num_stations + 1, 0);
  for (int g = 0; g < num_stations; ++g) {
    offset[g + 1] = offset[g] + capacities[g];
  }
  std::vector<int> slots(offset[num_stations], -1);
  std::vector<int> next_proposal(num_sats, 0);

  // Satellites propose in rounds (classic deferred acceptance).
  std::vector<int> free_sats;
  for (int s = 0; s < num_sats; ++s) {
    if (!prefs[s].empty()) free_sats.push_back(s);
  }
  while (!free_sats.empty()) {
    const int s = free_sats.back();
    free_sats.pop_back();
    while (next_proposal[s] < static_cast<int>(prefs[s].size())) {
      const int ei = prefs[s][next_proposal[s]++];
      const int g = edges[ei].station;
      // First free slot, and the worst edge held in the slots before it.
      int k = offset[g];
      int worst = -1;
      for (; k < offset[g + 1] && slots[k] != -1; ++k) {
        if (worst == -1 ||
            prefers(edges[slots[worst]].weight, edges[slots[worst]].sat,
                    edges[slots[k]].weight, edges[slots[k]].sat)) {
          worst = k;
        }
      }
      if (k < offset[g + 1]) {
        slots[k] = ei;
        break;
      }
      if (worst == -1) continue;  // zero-capacity station
      const Edge& held = edges[slots[worst]];
      if (prefers(edges[ei].weight, s, held.weight, held.sat)) {
        // Station trades up in place; the displaced satellite re-enters
        // the pool.
        free_sats.push_back(held.sat);
        slots[worst] = ei;
        break;
      }
    }
  }

  Matching m;
  for (int ei : slots) {
    if (ei != -1) m.push_back(ei);
  }
  return m;
}

Matching optimal_matching(const std::vector<Edge>& edges, int num_sats,
                          const std::vector<int>& capacities) {
  validate(edges, num_sats, capacities);
  const auto num_stations = static_cast<int>(capacities.size());
  if (edges.empty() || num_sats == 0 || num_stations == 0) return {};

  // Compress to nodes that actually carry a positive edge: the contact
  // graph is sparse (most satellites see no station at any instant), and
  // the Hungarian algorithm is cubic in the matrix dimension.  Station g
  // becomes `capacities[g]` adjacent columns (one per slot), so the
  // one-to-one assignment solves the capacitated problem.
  std::vector<int> row_of(num_sats, -1), col_of(num_stations, -1);
  int rows = 0, cols = 0;
  for (const Edge& e : edges) {
    if (e.weight <= 0.0 || capacities[e.station] == 0) continue;
    if (row_of[e.sat] == -1) row_of[e.sat] = rows++;
    if (col_of[e.station] == -1) {
      col_of[e.station] = cols;
      cols += capacities[e.station];
    }
  }
  if (rows == 0) return {};

  // Square K x K cost matrix; missing edges cost 0 (equivalent to leaving
  // the node unmatched), real edges cost -weight so minimization maximizes
  // total weight.  Keep the edge index for recovery.
  const int k = std::max(rows, cols);
  std::vector<double> cost(static_cast<std::size_t>(k) * k, 0.0);
  std::vector<int> edge_of(static_cast<std::size_t>(k) * k, -1);
  for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
    const Edge& e = edges[i];
    if (e.weight <= 0.0) continue;
    for (int slot = 0; slot < capacities[e.station]; ++slot) {
      const std::size_t idx = static_cast<std::size_t>(row_of[e.sat]) * k +
                              static_cast<std::size_t>(col_of[e.station]) +
                              static_cast<std::size_t>(slot);
      if (-e.weight < cost[idx]) {
        cost[idx] = -e.weight;
        edge_of[idx] = i;
      }
    }
  }

  // Hungarian algorithm with potentials (O(K^3)), 1-indexed formulation.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(k + 1, 0.0), v(k + 1, 0.0);
  std::vector<int> p(k + 1, 0), way(k + 1, 0);
  for (int i = 1; i <= k; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(k + 1, kInf);
    std::vector<char> used(k + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= k; ++j) {
        if (used[j]) continue;
        const double cur =
            cost[static_cast<std::size_t>(i0 - 1) * k + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= k; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  Matching m;
  for (int j = 1; j <= k; ++j) {
    const int i = p[j];
    if (i == 0) continue;
    const int ei = edge_of[static_cast<std::size_t>(i - 1) * k + (j - 1)];
    if (ei != -1) m.push_back(ei);
  }
  return m;
}

Matching greedy_matching(const std::vector<Edge>& edges, int num_sats,
                         const std::vector<int>& capacities) {
  validate(edges, num_sats, capacities);
  std::vector<int> order;
  order.reserve(edges.size());
  for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
    if (edges[i].weight > 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (edges[a].weight != edges[b].weight) {
      return edges[a].weight > edges[b].weight;
    }
    if (edges[a].sat != edges[b].sat) return edges[a].sat < edges[b].sat;
    return edges[a].station < edges[b].station;
  });
  std::vector<char> sat_used(num_sats, 0);
  std::vector<int> spare(capacities);
  Matching m;
  for (int i : order) {
    if (sat_used[edges[i].sat] || spare[edges[i].station] == 0) continue;
    sat_used[edges[i].sat] = 1;
    spare[edges[i].station] -= 1;
    m.push_back(i);
  }
  return m;
}

double matching_value(const std::vector<Edge>& edges, const Matching& m) {
  double total = 0.0;
  for (int i : m) total += edges.at(i).weight;
  return total;
}

bool is_stable(const std::vector<Edge>& edges, const Matching& m, int num_sats,
               const std::vector<int>& capacities) {
  validate(edges, num_sats, capacities);
  std::vector<double> sat_w(num_sats, 0.0);
  std::vector<int> sat_partner(num_sats, -1);
  std::vector<int> gs_load(capacities.size(), 0);
  // Worst weight a station currently holds (only meaningful when full).
  std::vector<double> gs_worst(capacities.size(),
                               std::numeric_limits<double>::infinity());
  for (int i : m) {
    const Edge& e = edges.at(i);
    sat_w[e.sat] = e.weight;
    sat_partner[e.sat] = e.station;
    gs_load[e.station] += 1;
    gs_worst[e.station] = std::min(gs_worst[e.station], e.weight);
  }
  // A pair blocks iff BOTH sides strictly improve by defecting to it
  // (weak stability, which Gale-Shapley guarantees).
  for (const Edge& e : edges) {
    if (e.weight <= 0.0) continue;
    if (sat_partner[e.sat] == e.station) continue;  // already matched pair
    if (capacities[e.station] == 0) continue;
    const bool sat_gains = sat_partner[e.sat] == -1 || e.weight > sat_w[e.sat];
    const bool gs_gains = gs_load[e.station] < capacities[e.station] ||
                          e.weight > gs_worst[e.station];
    if (sat_gains && gs_gains) return false;
  }
  return true;
}

std::string validate_matching(const std::vector<Edge>& edges,
                              const Matching& m, int num_sats,
                              const std::vector<int>& capacities,
                              bool require_stable) {
  const auto num_stations = static_cast<int>(capacities.size());
  std::ostringstream err;
  std::vector<int> sat_of(num_sats, -1);
  std::vector<int> gs_load(capacities.size(), 0);
  for (int ei : m) {
    if (ei < 0 || ei >= static_cast<int>(edges.size())) {
      err << "edge index " << ei << " outside [0, " << edges.size() << ")";
      return err.str();
    }
    const Edge& e = edges[ei];
    if (e.sat < 0 || e.sat >= num_sats || e.station < 0 ||
        e.station >= num_stations) {
      err << "edge " << ei << " endpoint out of range: sat=" << e.sat
          << " station=" << e.station;
      return err.str();
    }
    if (e.weight <= 0.0) {
      err << "edge " << ei << " selected with non-positive weight "
          << e.weight;
      return err.str();
    }
    if (sat_of[e.sat] != -1) {
      err << "satellite " << e.sat << " double-booked (edges "
          << sat_of[e.sat] << " and " << ei << ")";
      return err.str();
    }
    sat_of[e.sat] = ei;
    if (++gs_load[e.station] > capacities[e.station]) {
      err << "station " << e.station << " over capacity: holds "
          << gs_load[e.station] << " links, capacity "
          << capacities[e.station];
      return err.str();
    }
  }
  if (require_stable && !is_stable(edges, m, num_sats, capacities)) {
    err << "matching is unstable: a satellite and a station with spare (or "
           "worse-used) capacity both prefer each other";
    return err.str();
  }
  return {};
}

std::string_view matcher_name(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kStable:
      return "stable (Gale-Shapley)";
    case MatcherKind::kOptimal:
      return "optimal (Hungarian)";
    case MatcherKind::kGreedy:
      return "greedy";
  }
  return "unknown";
}

Matching run_matcher(MatcherKind kind, const std::vector<Edge>& edges,
                     int num_sats, const std::vector<int>& capacities) {
  switch (kind) {
    case MatcherKind::kStable:
      return stable_matching(edges, num_sats, capacities);
    case MatcherKind::kOptimal:
      return optimal_matching(edges, num_sats, capacities);
    case MatcherKind::kGreedy:
      return greedy_matching(edges, num_sats, capacities);
  }
  DGS_CHECK(false, "run_matcher: unknown matcher kind "
                       << static_cast<int>(kind));
}

}  // namespace dgs::core
