// Station-selection optimizers (DESIGN.md §15).
//
// Two tiers, matching how expensive their evaluators are:
//
//   * lazy_greedy maximizes the table's weighted max-coverage objective —
//     monotone submodular, so plain greedy already carries the classic
//     (1 - 1/e) guarantee and the lazy queue (Minoux '78) makes it cheap:
//     a candidate is only re-evaluated when its stale upper bound reaches
//     the top of the heap.
//
//   * local_search refines a selection with bounded swap moves, scoring
//     each trial subset with the *full* simulation (latency tail + backlog,
//     the metrics the paper actually reports) — the expensive evaluator is
//     reserved for the handful of subsets near the frontier.
//
// Both are deterministic: ties break toward the smaller candidate id, so
// the selection is independent of candidate iteration order (pinned in
// tests/test_netdesign.cpp).
#pragma once

#include <functional>
#include <vector>

#include "src/netdesign/value_table.h"
#include "src/obs/metrics.h"

namespace dgs::netdesign {

struct GreedyOptions {
  int k = 10;          ///< Stations to select (fewer if pool/budget bind).
  double budget = 0.0; ///< Total install-cost cap; 0 = unlimited.
};

struct GreedyResult {
  /// Pool indices (CandidateEntry::candidate) in pick order.
  std::vector<int> selected;
  /// Accepted marginal gain (GB) per pick; non-increasing by
  /// submodularity (test invariant).
  std::vector<double> gains;
  double objective_gb = 0.0;  ///< Sum of gains.
  double total_cost = 0.0;
};

/// Lazy-greedy weighted max-coverage over the table.  Budget-infeasible
/// candidates are discarded as they surface (cost only grows, so they can
/// never become feasible).  Deterministic for a fixed table regardless of
/// the order of table.candidates.
GreedyResult lazy_greedy(const ValueTable& table, const GreedyOptions& opts,
                         obs::Registry* metrics = nullptr);

/// One full-simulation evaluation of a station subset (see
/// pareto.h's SubsetEvaluator for the production implementation).
struct EvalPoint {
  double latency_p50_min = 0.0;
  double latency_p90_min = 0.0;
  double backlog_end_gb = 0.0;    ///< Sum over satellites, end of horizon.
  double delivered_fraction = 0.0;
};

/// Scalar ranking of an evaluation for the swap search: the p90 latency
/// tail plus a backlog penalty (smaller is better).  One leftover GB is
/// worth kBacklogWeightMinPerGb minutes of tail latency — backlog is data
/// that missed the *whole* horizon, so it outweighs tail minutes.
inline constexpr double kBacklogWeightMinPerGb = 10.0;
double eval_score(const EvalPoint& p);

/// Evaluates a subset given as ascending pool indices.
using SubsetEvalFn = std::function<EvalPoint(const std::vector<int>&)>;

struct LocalSearchOptions {
  int max_rounds = 2;  ///< Swap passes over the selection.
  int top_m = 6;       ///< Swap-in candidates per round (by standalone
                       ///< value).
  int max_evals = 40;  ///< Hard cap on evaluator calls.
  double budget = 0.0; ///< Same semantics as GreedyOptions::budget.
};

struct LocalSearchResult {
  std::vector<int> selected;  ///< Pool indices, ascending.
  EvalPoint eval;             ///< Evaluation of `selected`.
  int sim_evals = 0;
  int swaps = 0;              ///< Accepted improving moves.
};

/// First-improvement swap search from `start_selected` (pool indices).
/// Each accepted move strictly improves eval_score; deterministic move
/// order (out ascending, in by descending standalone value, ties toward
/// the smaller id).
LocalSearchResult local_search(const ValueTable& table,
                               const std::vector<int>& start_selected,
                               const SubsetEvalFn& evaluate,
                               const LocalSearchOptions& opts,
                               obs::Registry* metrics = nullptr);

}  // namespace dgs::netdesign
