#include "src/netdesign/pareto.h"

#include <algorithm>
#include <ostream>
#include <string>

#include "src/core/run_artifact.h"
#include "src/util/check.h"

namespace dgs::netdesign {
namespace {

/// Install cost of a selection (pool indices).
double selection_cost(const std::vector<CandidateSite>& pool,
                      const std::vector<int>& selected) {
  double cost = 0.0;
  for (int c : selected) {
    DGS_CHECK(c >= 0 && c < static_cast<int>(pool.size()),
              "selection outside the pool");
    cost += pool[static_cast<std::size_t>(c)].install_cost;
  }
  return cost;
}

}  // namespace

SubsetEvaluator::SubsetEvaluator(
    const std::vector<groundseg::SatelliteConfig>& sats,
    const std::vector<CandidateSite>& pool,
    const weather::WeatherProvider* actual_weather,
    const core::SimulationOptions& base)
    : sats_(&sats), pool_(&pool), weather_(actual_weather), base_(base) {
  DGS_ENSURE(!sats.empty() && !pool.empty(),
             "sats=" << sats.size() << " pool=" << pool.size());
}

EvalPoint SubsetEvaluator::evaluate(
    const std::vector<int>& pool_indices) const {
  DGS_ENSURE(!pool_indices.empty(), "empty subset");
  core::SimulationOptions opts = base_;
  opts.station_subset.clear();
  opts.station_subset.reserve(pool_indices.size());
  for (int c : pool_indices) {
    DGS_ENSURE(c >= 0 && c < static_cast<int>(pool_->size()),
               "pool index " << c << " outside the pool");
    opts.station_subset.push_back(
        (*pool_)[static_cast<std::size_t>(c)].station.id);
  }
  core::Simulator sim(*sats_, pool_stations(*pool_), weather_, opts);
  const core::SimulationResult r = sim.run();

  EvalPoint p;
  if (r.latency_minutes.empty()) {
    p.latency_p50_min = opts.duration_hours * 60.0;
    p.latency_p90_min = opts.duration_hours * 60.0;
  } else {
    p.latency_p50_min = r.latency_minutes.percentile(50.0);
    p.latency_p90_min = r.latency_minutes.percentile(90.0);
  }
  for (const core::SatelliteOutcome& s : r.per_satellite) {
    p.backlog_end_gb += s.backlog_bytes / 1e9;
  }
  p.delivered_fraction = r.delivered_fraction();
  return p;
}

std::vector<FrontPoint> budget_sweep(const ValueTable& table,
                                     const std::vector<CandidateSite>& pool,
                                     const SubsetEvaluator& evaluator,
                                     const SweepOptions& opts,
                                     obs::Registry* metrics) {
  DGS_ENSURE(!opts.ks.empty(), "no station counts to sweep");
  for (std::size_t i = 0; i < opts.ks.size(); ++i) {
    DGS_ENSURE_GE(opts.ks[i], 1);
    DGS_ENSURE(opts.ks[i] <= static_cast<int>(pool.size()),
               "K=" << opts.ks[i] << " exceeds pool size " << pool.size());
    if (i > 0) {
      DGS_ENSURE(opts.ks[i] > opts.ks[i - 1],
                 "station counts must be strictly ascending");
    }
  }

  obs::Counter* points_metric = nullptr;
  obs::Counter* evals_metric = nullptr;
  if (metrics != nullptr) {
    points_metric =
        metrics->counter("dgs_netdesign_front_points_total",
                         "Pareto-front points emitted by budget sweeps");
    evals_metric = metrics->counter(
        "dgs_netdesign_sim_evals_total",
        "Full-simulator subset evaluations (local search + fronts)");
  }

  std::vector<FrontPoint> points;
  for (int k : opts.ks) {
    GreedyOptions greedy_opts;
    greedy_opts.k = k;
    greedy_opts.budget = opts.budget;
    const GreedyResult greedy = lazy_greedy(table, greedy_opts, metrics);
    if (greedy.selected.empty()) continue;  // Budget admits nothing.

    std::vector<int> selected = greedy.selected;
    std::sort(selected.begin(), selected.end());
    FrontPoint point;
    point.objective_gb = greedy.objective_gb;
    if (opts.refine) {
      LocalSearchOptions local = opts.local;
      local.budget = opts.budget;
      const LocalSearchResult refined = local_search(
          table, selected,
          [&](const std::vector<int>& s) { return evaluator.evaluate(s); },
          local, metrics);
      selected = refined.selected;
      point.eval = refined.eval;
    } else {
      point.eval = evaluator.evaluate(selected);
      if (evals_metric != nullptr) evals_metric->inc();
    }
    // A binding budget can select fewer than K stations, collapsing this
    // point onto an earlier one; keep only the first of each count so
    // the emitted K axis stays strictly ascending.
    if (!points.empty() &&
        points.back().station_ids.size() >= selected.size()) {
      continue;
    }
    point.cost = selection_cost(pool, selected);
    point.station_ids.reserve(selected.size());
    for (int c : selected) {
      point.station_ids.push_back(
          pool[static_cast<std::size_t>(c)].station.id);
    }
    std::sort(point.station_ids.begin(), point.station_ids.end());
    points.push_back(std::move(point));
    if (points_metric != nullptr) points_metric->inc();
  }

  // Dominance flags: point a is dominated when some b is no worse on
  // cost, p90 latency, and backlog, and strictly better on one.
  for (std::size_t a = 0; a < points.size(); ++a) {
    for (std::size_t b = 0; b < points.size(); ++b) {
      if (a == b) continue;
      const FrontPoint& pa = points[a];
      const FrontPoint& pb = points[b];
      const bool no_worse =
          pb.cost <= pa.cost &&
          pb.eval.latency_p90_min <= pa.eval.latency_p90_min &&
          pb.eval.backlog_end_gb <= pa.eval.backlog_end_gb;
      const bool strictly =
          pb.cost < pa.cost ||
          pb.eval.latency_p90_min < pa.eval.latency_p90_min ||
          pb.eval.backlog_end_gb < pa.eval.backlog_end_gb;
      if (no_worse && strictly) {
        points[a].dominated = true;
        break;
      }
    }
  }
  return points;
}

void write_netdesign_front(std::ostream& out, const FrontIdentity& identity,
                           const std::vector<FrontPoint>& points) {
  DGS_ENSURE(!points.empty(), "empty front");
  for (std::size_t i = 1; i < points.size(); ++i) {
    DGS_ENSURE(points[i].station_ids.size() >
                   points[i - 1].station_ids.size(),
               "front points must be strictly ascending in station count");
  }

  out << "{\n  ";
  core::write_artifact_header(out, "netdesign_front", ",\n  ");
  out << ",\n  ";
  core::write_fields(out, core::netdesign_identity_specs(), identity,
                     ",\n  ");
  out << ",\n  \"" << core::kFrontPointsKey << "\": {\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FrontPoint& p = points[i];
    out << "    \"" << core::indexed_key('k', p.station_ids.size())
        << "\": {\n      ";
    core::write_fields(out, core::netdesign_point_specs(), p, ",\n      ");
    out << (i + 1 < points.size() ? "\n    },\n" : "\n    }\n");
  }
  out << "  }\n}\n";
}

}  // namespace dgs::netdesign
