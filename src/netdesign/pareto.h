// Budget sweeps and cost/performance Pareto fronts (DESIGN.md §15).
//
// The sweep runs the selection pipeline at each requested station count
// K: lazy-greedy over the value table, optional swap-based local-search
// refinement, then one authoritative full-simulation evaluation of the
// final subset.  Each point carries the install cost and the simulated
// latency tail / end-of-horizon backlog, with dominated points flagged so
// a plot of the non-dominated set is the paper-style cost-vs-performance
// front.  The front is written as the `dgs.netdesign.v1` run artifact
// validated by core::validate_netdesign_front_json.
#pragma once

#include <iosfwd>
#include <vector>

#include "src/core/simulator.h"
#include "src/netdesign/optimizer.h"

namespace dgs::netdesign {

/// Full-simulator subset evaluator (the expensive tier).  Borrows the
/// scenario; every evaluate() call runs a complete horizon on the
/// station subset via SimulationOptions::station_subset.
class SubsetEvaluator {
 public:
  /// `base` must validate against the pool's station list; its
  /// station_subset field is overwritten per call.  All borrowed
  /// arguments must outlive the evaluator.
  SubsetEvaluator(const std::vector<groundseg::SatelliteConfig>& sats,
                  const std::vector<CandidateSite>& pool,
                  const weather::WeatherProvider* actual_weather,
                  const core::SimulationOptions& base);

  /// Evaluates the subset given as ascending pool indices.  A run that
  /// delivers nothing reports the whole horizon as its latency
  /// percentiles (the pessimistic sentinel), so empty subsets rank last.
  EvalPoint evaluate(const std::vector<int>& pool_indices) const;

 private:
  const std::vector<groundseg::SatelliteConfig>* sats_;
  const std::vector<CandidateSite>* pool_;
  const weather::WeatherProvider* weather_;
  core::SimulationOptions base_;
};

/// One point of the front: the selection at station count K and its
/// simulated performance.
struct FrontPoint {
  int k = 0;                  ///< The station count K swept for this point.
  double cost = 0.0;          ///< Sum of selected install costs.
  double objective_gb = 0.0;  ///< Greedy coverage objective (table tier).
  EvalPoint eval;             ///< Simulation tier (authoritative).
  bool dominated = false;     ///< Some other point is >= on cost, p90
                              ///< latency, and backlog (one strictly).
  std::vector<int> station_ids;  ///< GroundStation::id, ascending.
};

struct SweepOptions {
  std::vector<int> ks;  ///< Station counts, strictly ascending, >= 1.
  double budget = 0.0;  ///< Per-point install-cost cap; 0 = unlimited.
  bool refine = false;  ///< Run local search at each K.
  LocalSearchOptions local;  ///< Only read when refine is set.
};

/// Runs the sweep.  Points whose effective station count collapses onto
/// an earlier point's (a binding budget can select fewer than K) are
/// dropped, so the returned counts are strictly ascending.  Deterministic
/// for fixed inputs and any thread count.
std::vector<FrontPoint> budget_sweep(const ValueTable& table,
                                     const std::vector<CandidateSite>& pool,
                                     const SubsetEvaluator& evaluator,
                                     const SweepOptions& opts,
                                     obs::Registry* metrics = nullptr);

/// Scenario identity stamped into the front artifact.
struct FrontIdentity {
  long long pool_size = 0;
  long long pool_seed = 0;
  long long num_satellites = 0;
  long long network_seed = 0;
  long long weather_seed = 0;
  double duration_hours = 0.0;
  double step_seconds = 0.0;
};

/// Writes the `dgs.netdesign.v1` front artifact by iterating the field
/// tables core::netdesign_identity_specs / netdesign_point_specs, the
/// ones core::validate_netdesign_front_json checks.
void write_netdesign_front(std::ostream& out, const FrontIdentity& identity,
                           const std::vector<FrontPoint>& points);

}  // namespace dgs::netdesign
