// Candidate-site pools for network design (DESIGN.md §15).
//
// The paper evaluates a hand-picked DGS(25%) subset; netdesign turns the
// "which stations should an operator actually build or rent" question into
// an optimization over a *candidate pool*: a seeded groundseg population
// annotated with the per-site economics the optimizer trades off —
// installation cost and long-run availability.  Pools are reproducible
// across tools from (pool_size, pool_seed) alone (see
// groundseg::NetworkOptions), so a front computed by dgs_netdesign names
// station ids any other CLI can replay via --stations-subset.
#pragma once

#include <vector>

#include "src/groundseg/network_gen.h"

namespace dgs::netdesign {

/// One buildable site: a groundseg station plus its economics.
struct CandidateSite {
  groundseg::GroundStation station;
  /// Abstract installation-cost units (a few tens per site).  The budget
  /// sweep and GreedyOptions::budget are expressed in the same units.
  double install_cost = 0.0;
  /// Long-run fraction of time the site is expected to be up (operator
  /// churn, §2's "best-effort" community stations).  Discounts the
  /// coverage value the optimizer credits the site with.
  double availability = 1.0;
};

/// Deterministically derives the candidate pool from `net`: stations come
/// from groundseg::generate_dgs_stations (honouring the pool_size /
/// pool_seed overrides), economics from a seeded cost model — a base
/// price, a dish-area term, a high-latitude logistics premium, a TX
/// premium, and bounded site-to-site noise; availability is drawn from
/// [0.90, 0.995).  Byte-stable for a fixed options struct.
std::vector<CandidateSite> make_candidate_pool(
    const groundseg::NetworkOptions& net);

/// The pool's stations in pool order — what the visibility engine and the
/// Session consume.  Pool index i holds station id pool[i].station.id.
std::vector<groundseg::GroundStation> pool_stations(
    const std::vector<CandidateSite>& pool);

}  // namespace dgs::netdesign
