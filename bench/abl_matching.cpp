// E9 — ablation: stable (Gale-Shapley) vs optimal (Hungarian) vs greedy
// matching (paper §3.1 discusses the stable/optimal trade-off and picks
// stable; greedy is the cheap strawman).
//
// Reports end-to-end metrics under each matcher plus the per-instant
// stability of the produced matchings (the optimal matching sacrifices
// stability: individual satellite-station pairs could defect).
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace dgs;
  using namespace dgs::bench;

  std::printf("=== E9: matching-algorithm ablation (24 h, DGS 173) ===\n\n");
  const Setup setup = make_paper_setup();
  weather::SyntheticWeatherProvider wx(kWeatherSeed, kEpoch, 25.0);

  struct Row {
    const char* label;
    core::MatcherKind kind;
  };
  const Row rows[] = {
      {"stable (Gale-Shapley)", core::MatcherKind::kStable},
      {"optimal (Hungarian)", core::MatcherKind::kOptimal},
      {"greedy", core::MatcherKind::kGreedy},
  };

  std::printf("  %-22s %10s %9s %9s %11s %13s\n", "matcher", "lat med",
              "lat p90", "backlog", "delivered", "matched value");
  for (const Row& row : rows) {
    core::SimulationOptions opts = day_sim();
    opts.matcher = row.kind;
    const core::SimulationResult r =
        core::Session(setup.sats, setup.dgs, &wx, opts).run_to_end();
    std::printf("  %-22s %7.1f min %5.1f min %6.2f GB %8.1f TB %13.0f\n",
                row.label, r.latency_minutes.median(),
                r.latency_minutes.percentile(90.0), r.backlog_gb.median(),
                r.total_delivered_bytes / 1e12, r.total_matched_value);
  }

  // Stability audit: sample instants, compare the three matchings directly.
  std::printf("\nPer-instant audit (every 30 min):\n");
  core::VisibilityEngine engine(setup.sats, setup.dgs, &wx);
  std::vector<core::OnboardQueue> queues(setup.sats.size());
  for (auto& q : queues) q.generate(50e9, kEpoch.plus_seconds(-3600));

  int instants = 0, optimal_unstable = 0;
  double stable_value = 0.0, optimal_value = 0.0, greedy_value = 0.0;
  for (double m = 0.0; m < 24.0 * 60.0; m += 30.0) {
    const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
    auto contacts = engine.contacts(t);
    if (contacts.empty()) continue;
    core::LatencyValue phi;
    std::vector<core::Edge> edges;
    for (auto& c : contacts) {
      c.weight = phi.edge_value(queues[c.sat], t, c.predicted_rate_bps * 7.5);
      edges.push_back(core::Edge{c.sat, c.station, c.weight});
    }
    const int ns = engine.num_sats();
    const std::vector<int> caps(engine.num_stations(), 1);
    const auto ms = core::stable_matching(edges, ns, caps);
    const auto mo = core::optimal_matching(edges, ns, caps);
    const auto mg = core::greedy_matching(edges, ns, caps);
    stable_value += core::matching_value(edges, ms);
    optimal_value += core::matching_value(edges, mo);
    greedy_value += core::matching_value(edges, mg);
    if (!core::is_stable(edges, mo, ns, caps)) ++optimal_unstable;
    ++instants;
  }
  std::printf("  instants sampled: %d\n", instants);
  std::printf("  value captured: stable %.3f, greedy %.3f (fraction of "
              "optimal)\n",
              stable_value / optimal_value, greedy_value / optimal_value);
  std::printf("  optimal matchings that are unstable (contain a blocking "
              "pair): %d/%d\n",
              optimal_unstable, instants);
  std::printf("\n  paper's position: stable matching trades a small amount "
              "of global value for defection-proofness in a fragmented "
              "network.\n");
  return 0;
}
