// Network-design optimizer (DESIGN.md §15): lazy-greedy invariants on
// hand-built instances, iteration-order independence, thread-count and
// rerun determinism of the front artifact, schema round-trips through the
// core validator, and the --stations-subset plumbing end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/run_artifact.h"
#include "src/core/session.h"
#include "src/groundseg/io.h"
#include "src/netdesign/pareto.h"
#include "src/weather/synthetic.h"

namespace dgs::netdesign {
namespace {

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr std::uint64_t kWeatherSeed = 42;

/// One candidate covering `values[j]` at cell (sat 0, first_step + j).
CandidateEntry entry(int id, double cost, std::vector<double> values,
                     int first_step = 0) {
  CandidateEntry e;
  e.candidate = id;
  e.cost = cost;
  e.availability = 1.0;
  PassValue pass;
  pass.sat = 0;
  pass.first_step = first_step;
  pass.step_values = std::move(values);
  e.passes.push_back(std::move(pass));
  return e;
}

/// Hand-built 1-sat instance small enough to brute-force.
ValueTable tiny_table() {
  ValueTable t;
  t.num_sats = 1;
  t.num_steps = 6;
  t.step_seconds = 60.0;
  t.candidates.push_back(entry(0, 10.0, {5.0, 5.0}, 0));   // cells 0,1
  t.candidates.push_back(entry(1, 4.0, {6.0, 6.0}, 2));    // cells 2,3
  t.candidates.push_back(entry(2, 4.0, {3.0}, 0));         // cell 0
  t.candidates.push_back(entry(3, 7.0, {2.0, 2.0}, 4));    // cells 4,5
  return t;
}

/// Brute-force weighted max-coverage objective of a subset.
double brute_objective(const ValueTable& t, const std::vector<int>& subset) {
  std::vector<double> best(
      static_cast<std::size_t>(t.num_sats * t.num_steps), 0.0);
  for (const CandidateEntry& c : t.candidates) {
    if (std::find(subset.begin(), subset.end(), c.candidate) ==
        subset.end()) {
      continue;
    }
    for (const PassValue& p : c.passes) {
      for (std::size_t j = 0; j < p.step_values.size(); ++j) {
        auto& cell = best[static_cast<std::size_t>(
            p.sat * t.num_steps + p.first_step) + j];
        cell = std::max(cell, p.step_values[j]);
      }
    }
  }
  double total = 0.0;
  for (double v : best) total += v;
  return total;
}

TEST(LazyGreedy, FindsKnownOptimumOnTinyInstance) {
  const ValueTable t = tiny_table();
  GreedyOptions opts;
  opts.k = 2;
  const GreedyResult r = lazy_greedy(t, opts);

  // Brute-force the best pair: disjoint high-value passes win, so greedy
  // (optimal on this instance) must match.
  double best = 0.0;
  for (std::size_t a = 0; a < t.candidates.size(); ++a) {
    for (std::size_t b = a + 1; b < t.candidates.size(); ++b) {
      best = std::max(best, brute_objective(t, {t.candidates[a].candidate,
                                               t.candidates[b].candidate}));
    }
  }
  EXPECT_DOUBLE_EQ(r.objective_gb, best);
  ASSERT_EQ(r.selected.size(), 2u);
  // Pick order: the 12 GB candidate first, then the 10 GB one.
  EXPECT_EQ(r.selected[0], 1);
  EXPECT_EQ(r.selected[1], 0);
  EXPECT_DOUBLE_EQ(r.total_cost, 14.0);
}

TEST(LazyGreedy, GainsNonIncreasingAndSumToObjective) {
  const ValueTable t = tiny_table();
  GreedyOptions opts;
  opts.k = 4;
  const GreedyResult r = lazy_greedy(t, opts);
  ASSERT_EQ(r.gains.size(), r.selected.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < r.gains.size(); ++i) {
    sum += r.gains[i];
    if (i > 0) {
      EXPECT_LE(r.gains[i], r.gains[i - 1] + 1e-12);
    }
  }
  EXPECT_NEAR(sum, r.objective_gb, 1e-9);
  EXPECT_DOUBLE_EQ(r.objective_gb, brute_objective(t, r.selected));
}

TEST(LazyGreedy, SelectionIndependentOfCandidateOrder) {
  ValueTable t = tiny_table();
  GreedyOptions opts;
  opts.k = 3;
  const GreedyResult forward = lazy_greedy(t, opts);
  std::reverse(t.candidates.begin(), t.candidates.end());
  const GreedyResult reversed = lazy_greedy(t, opts);
  std::rotate(t.candidates.begin(), t.candidates.begin() + 1,
              t.candidates.end());
  const GreedyResult rotated = lazy_greedy(t, opts);
  EXPECT_EQ(forward.selected, reversed.selected);
  EXPECT_EQ(forward.selected, rotated.selected);
  EXPECT_EQ(forward.gains, reversed.gains);
}

TEST(LazyGreedy, TiesBreakTowardSmallerCandidateId) {
  ValueTable t;
  t.num_sats = 1;
  t.num_steps = 4;
  t.step_seconds = 60.0;
  // Identical standalone values on disjoint cells: ids decide.
  t.candidates.push_back(entry(7, 1.0, {4.0}, 0));
  t.candidates.push_back(entry(3, 1.0, {4.0}, 1));
  GreedyOptions opts;
  opts.k = 2;
  const GreedyResult r = lazy_greedy(t, opts);
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_EQ(r.selected[0], 3);
  EXPECT_EQ(r.selected[1], 7);
}

TEST(LazyGreedy, BudgetSkipsInfeasibleCandidates) {
  const ValueTable t = tiny_table();
  GreedyOptions opts;
  opts.k = 3;
  opts.budget = 9.0;  // Candidate 0 (cost 10) can never fit.
  const GreedyResult r = lazy_greedy(t, opts);
  EXPECT_LE(r.total_cost, opts.budget);
  for (int c : r.selected) EXPECT_NE(c, 0);
  // It still packs the feasible ones: 1 (cost 4) + 2 (cost 4) fit.
  EXPECT_EQ(r.selected.size(), 2u);
}

TEST(LazyGreedy, RejectsMalformedTables) {
  ValueTable t = tiny_table();
  t.candidates.push_back(entry(1, 1.0, {1.0}, 0));  // duplicate id
  GreedyOptions opts;
  EXPECT_THROW(lazy_greedy(t, opts), std::invalid_argument);

  ValueTable oob = tiny_table();
  oob.candidates[0].passes[0].first_step = 5;  // pass runs past the grid
  EXPECT_THROW(lazy_greedy(oob, opts), std::invalid_argument);
}

TEST(LocalSearch, AcceptsOnlyImprovingSwapsDeterministically) {
  const ValueTable t = tiny_table();
  // Scripted evaluator: subset {1,3} is the unique best; every eval_score
  // strictly ranks subsets by their table objective (so the search has a
  // gradient to follow).
  int evals = 0;
  const SubsetEvalFn eval = [&](const std::vector<int>& s) {
    ++evals;
    EvalPoint p;
    p.latency_p90_min = 100.0 - brute_objective(t, s);
    return p;
  };
  LocalSearchOptions opts;
  opts.max_rounds = 3;
  opts.top_m = 4;
  opts.max_evals = 30;
  const LocalSearchResult r = local_search(t, {2, 3}, eval, opts);
  EXPECT_TRUE(std::is_sorted(r.selected.begin(), r.selected.end()));
  EXPECT_EQ(r.sim_evals, evals);
  EXPECT_LE(r.sim_evals, opts.max_evals);
  // The scripted landscape pushes it to the brute-force best pair {0,1}.
  EXPECT_GE(r.swaps, 1);
  EXPECT_EQ(r.selected, (std::vector<int>{0, 1}));
}

// --- Full pipeline: determinism + artifact schema -----------------------

struct Scenario {
  groundseg::NetworkOptions net;
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<CandidateSite> pool;
  weather::SyntheticWeatherProvider wx;

  Scenario()
      : net(make_net()),
        sats(groundseg::generate_constellation(net, kEpoch)),
        pool(make_candidate_pool(net)),
        wx(kWeatherSeed, kEpoch, 3.0) {}

  static groundseg::NetworkOptions make_net() {
    groundseg::NetworkOptions net;
    net.pool_size = 18;
    net.pool_seed = 7;
    net.num_satellites = 6;
    return net;
  }
};

/// Runs the whole pipeline at the given thread count and returns the
/// front artifact body.
std::string run_front(const Scenario& sc, int threads) {
  ValueTableOptions table_opts;
  table_opts.start = kEpoch;
  table_opts.duration_hours = 2.0;
  table_opts.step_seconds = 60.0;
  table_opts.parallel.num_threads = threads;
  const ValueTable table =
      build_value_table(sc.sats, sc.pool, &sc.wx, table_opts);

  core::SimulationOptions sim_opts;
  sim_opts.start = kEpoch;
  sim_opts.duration_hours = 2.0;
  sim_opts.step_seconds = 60.0;
  sim_opts.parallel.num_threads = threads;
  const SubsetEvaluator evaluator(sc.sats, sc.pool, &sc.wx, sim_opts);

  SweepOptions sweep;
  sweep.ks = {4, 8};
  const std::vector<FrontPoint> front =
      budget_sweep(table, sc.pool, evaluator, sweep);

  FrontIdentity id;
  id.pool_size = sc.net.pool_size;
  id.pool_seed = static_cast<long long>(sc.net.pool_seed);
  id.num_satellites = sc.net.num_satellites;
  id.network_seed = static_cast<long long>(sc.net.seed);
  id.weather_seed = static_cast<long long>(kWeatherSeed);
  id.duration_hours = 2.0;
  id.step_seconds = 60.0;
  std::ostringstream out;
  write_netdesign_front(out, id, front);
  return out.str();
}

TEST(NetdesignPipeline, FrontByteIdenticalAcrossThreadsAndReruns) {
  const Scenario sc;
  const std::string t1 = run_front(sc, 1);
  const std::string t4 = run_front(sc, 4);
  const std::string again = run_front(sc, 1);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, again);
  EXPECT_FALSE(t1.empty());
}

TEST(NetdesignPipeline, FrontValidatesAndMutationsAreRejected) {
  const Scenario sc;
  const std::string doc = run_front(sc, 1);
  EXPECT_FALSE(core::validate_netdesign_front_json(doc).has_value());

  const auto corrupt = [&doc](const std::string& from,
                              const std::string& to) {
    std::string bad = doc;
    const auto pos = bad.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    return bad;
  };
  // Wrong schema version, wrong artifact tag, missing point field,
  // non-ascending station ids: each must fail validation.
  EXPECT_TRUE(core::validate_netdesign_front_json(
                  corrupt("\"schema_version\": 2", "\"schema_version\": 1"))
                  .has_value());
  EXPECT_TRUE(core::validate_netdesign_front_json(
                  corrupt("netdesign_front", "campaign_summary"))
                  .has_value());
  EXPECT_TRUE(core::validate_netdesign_front_json(
                  corrupt("latency_p90_min", "latency_p91_min"))
                  .has_value());
  EXPECT_TRUE(core::validate_netdesign_front_json(
                  corrupt("\"dominated\": ", "\"dominatedx\": "))
                  .has_value());
}

TEST(NetdesignPipeline, FrontHoldsPoolSeedsUpToTwoToThe53MinusOne) {
  // dgs_netdesign rejects --pool-seed 2^53 before the sweep (ctest
  // dgs_netdesign_rejects_inexact_pool_seed); one below it round-trips.
  FrontIdentity id;
  id.pool_size = 1;
  id.pool_seed = static_cast<long long>(core::kMaxArtifactInteger);
  id.num_satellites = 1;
  id.duration_hours = 1.0;
  id.step_seconds = 60.0;
  FrontPoint point;
  point.station_ids = {3};
  std::ostringstream out;
  write_netdesign_front(out, id, {point});
  EXPECT_NE(out.str().find("\"pool_seed\": 9007199254740991,"),
            std::string::npos);
  EXPECT_FALSE(core::validate_netdesign_front_json(out.str()).has_value());

  id.pool_seed += 1;
  std::ostringstream past;
  write_netdesign_front(past, id, {point});
  const auto err = core::validate_netdesign_front_json(past.str());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->where, "front.pool_seed");
}

TEST(NetdesignPipeline, SubsetEvaluatorMatchesManuallyFilteredRun) {
  const Scenario sc;
  // Running via SimulationOptions::station_subset must equal running the
  // simulator on the pre-filtered station list (the subset mechanism only
  // selects, it never perturbs).
  const std::vector<int> subset = {1, 4, 9, 13};
  core::SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 2.0;
  opts.step_seconds = 60.0;

  const auto all = pool_stations(sc.pool);
  core::SimulationOptions with_subset = opts;
  with_subset.station_subset = subset;
  core::Session via_subset(sc.sats, all, &sc.wx, with_subset);
  const core::SimulationResult a = via_subset.run_to_end();

  std::vector<groundseg::GroundStation> filtered;
  for (const auto& gs : all) {
    if (std::find(subset.begin(), subset.end(), gs.id) != subset.end()) {
      filtered.push_back(gs);
    }
  }
  core::Session direct(sc.sats, filtered, &sc.wx, opts);
  const core::SimulationResult b = direct.run_to_end();

  EXPECT_DOUBLE_EQ(a.total_delivered_bytes, b.total_delivered_bytes);
  EXPECT_DOUBLE_EQ(a.total_generated_bytes, b.total_generated_bytes);
  ASSERT_EQ(a.latency_minutes.size(), b.latency_minutes.size());
  EXPECT_EQ(a.latency_minutes.sorted(), b.latency_minutes.sorted());
}

TEST(NetdesignPipeline, StationSubsetValidation) {
  core::SimulationOptions opts;
  opts.start = kEpoch;
  opts.duration_hours = 1.0;
  opts.step_seconds = 60.0;
  const std::vector<int> ids = {0, 1, 2, 3, 4};

  opts.station_subset = {2, -1};
  auto err = opts.validate(5, ids);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "station_subset[1]");

  opts.station_subset = {2, 2};
  err = opts.validate(5, ids);
  ASSERT_TRUE(err.has_value());

  opts.station_subset = {2, 99};
  err = opts.validate(5, ids);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("unknown station id"), std::string::npos);

  opts.station_subset = {4, 2, 0};
  EXPECT_FALSE(opts.validate(5, ids).has_value());
}

TEST(SubsetIo, RoundTripAndRejects) {
  std::ostringstream out;
  groundseg::write_station_subset(out, {9, 3, 27});
  std::istringstream in(out.str());
  const std::vector<int> back = groundseg::read_station_subset(in);
  EXPECT_EQ(back, (std::vector<int>{3, 9, 27}));  // writer sorts

  std::istringstream dup("1\n1\n");
  EXPECT_THROW(groundseg::read_station_subset(dup), std::invalid_argument);
  std::istringstream neg("-4\n");
  EXPECT_THROW(groundseg::read_station_subset(neg), std::invalid_argument);
  std::istringstream junk("3x\n");
  EXPECT_THROW(groundseg::read_station_subset(junk), std::invalid_argument);
  std::istringstream comments("# dgs.stations_subset.v1\n\n5\n");
  EXPECT_EQ(groundseg::read_station_subset(comments),
            (std::vector<int>{5}));
}

TEST(CandidatePool, DeterministicAndEconomicallyPlausible) {
  groundseg::NetworkOptions net = Scenario::make_net();
  const auto a = make_candidate_pool(net);
  const auto b = make_candidate_pool(net);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(net.pool_size));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].station.id, b[i].station.id);
    EXPECT_DOUBLE_EQ(a[i].install_cost, b[i].install_cost);
    EXPECT_DOUBLE_EQ(a[i].availability, b[i].availability);
    EXPECT_GT(a[i].install_cost, 0.0);
    EXPECT_GE(a[i].availability, 0.90);
    EXPECT_LT(a[i].availability, 1.0);
  }
  // Economics draws are a separate stream: same sites, different costs
  // under a different pool seed is NOT expected — the seed changes the
  // sites too.  But the pool's stations must match the plain generator.
  const auto stations = groundseg::generate_dgs_stations(net);
  ASSERT_EQ(stations.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(stations[i].id, a[i].station.id);
    EXPECT_DOUBLE_EQ(stations[i].location.latitude_rad,
                     a[i].station.location.latitude_rad);
  }
}

}  // namespace
}  // namespace dgs::netdesign
