#include "src/core/scheduler.h"

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace dgs::core {

Scheduler::Scheduler(const VisibilityEngine* engine,
                     const SchedulerConfig& config)
    : engine_(engine), config_(config),
      value_(make_value_function(config.value)) {
  DGS_ENSURE(engine_ != nullptr, "null visibility engine");
  DGS_ENSURE_GT(config.quantum_seconds, 0.0);
  if (config.value_scale != nullptr) {
    DGS_ENSURE_EQ(config.value_scale->size(),
                  static_cast<std::size_t>(engine_->num_sats()) *
                      static_cast<std::size_t>(engine_->num_stations()));
  }
  if (obs::Registry* metrics = engine_->metrics(); metrics != nullptr) {
    instants_ = metrics->counter("dgs_sched_instants_total",
                                 "schedule_instant invocations");
    matched_edges_ = metrics->counter(
        "dgs_sched_matched_edges_total",
        "Assignments selected by the matcher across all instants");
  }
}

std::vector<ContactEdge> Scheduler::schedule_instant(
    const util::Epoch& when, const std::vector<OnboardQueue>& queues,
    std::span<const double> forecast_lead_s,
    std::span<const char> station_down) const {
  DGS_ENSURE_EQ(static_cast<int>(queues.size()), engine_->num_sats());
  DGS_TRACE_SPAN("sched.instant");
  if (instants_ != nullptr) instants_->inc();

  std::vector<ContactEdge> contacts =
      engine_->contacts(when, forecast_lead_s, station_down);

  // Weight edges by the value of the data each could move this quantum.
  // Per-index writes keep the parallel path bit-identical to serial.
  const auto num_stations = static_cast<std::size_t>(engine_->num_stations());
  std::vector<Edge> edges(contacts.size());
  const auto weigh = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      ContactEdge& c = contacts[static_cast<std::size_t>(i)];
      const double link_bytes =
          c.predicted_rate_bps * config_.quantum_seconds / 8.0;
      c.weight = value_->edge_value(queues[c.sat], when, link_bytes);
      if (config_.sat_value_scale != nullptr) {
        c.weight *=
            (*config_.sat_value_scale)[static_cast<std::size_t>(c.sat)];
      }
      if (config_.value_scale != nullptr) {
        const std::size_t cell = static_cast<std::size_t>(c.sat) *
                                     num_stations +
                                 static_cast<std::size_t>(c.station);
        c.weight *= (*config_.value_scale)[cell];
      }
      edges[static_cast<std::size_t>(i)] = Edge{c.sat, c.station, c.weight};
    }
  };
  util::parallel_for(engine_->thread_pool(),
                     static_cast<std::int64_t>(contacts.size()), weigh);

  // Beamforming stations (beam_count > 1) turn the problem into a
  // capacitated matching; node-duplicate for the optimal matcher.
  bool any_beams = false;
  std::vector<int> capacities(engine_->num_stations());
  for (int g = 0; g < engine_->num_stations(); ++g) {
    capacities[g] = std::max(1, engine_->station(g).beam_count);
    any_beams |= capacities[g] > 1;
  }

  DGS_TRACE_SPAN("sched.match");
  Matching m;
  if (!any_beams) {
    m = run_matcher(config_.matcher, edges, engine_->num_sats(),
                    engine_->num_stations());
  } else {
    switch (config_.matcher) {
      case MatcherKind::kStable:
        m = stable_b_matching(edges, engine_->num_sats(), capacities);
        break;
      case MatcherKind::kGreedy:
        m = greedy_b_matching(edges, engine_->num_sats(), capacities);
        break;
      case MatcherKind::kOptimal: {
        // Duplicate each station into `capacity` slots and solve the
        // one-to-one problem; slots map back to the original station.
        std::vector<int> slot_of_station(engine_->num_stations() + 1, 0);
        for (int g = 0; g < engine_->num_stations(); ++g) {
          slot_of_station[g + 1] = slot_of_station[g] + capacities[g];
        }
        std::vector<Edge> expanded;
        std::vector<int> expanded_to_original;
        expanded.reserve(edges.size() * 2);
        for (std::size_t i = 0; i < edges.size(); ++i) {
          for (int k = 0; k < capacities[edges[i].station]; ++k) {
            expanded.push_back(Edge{edges[i].sat,
                                    slot_of_station[edges[i].station] + k,
                                    edges[i].weight});
            expanded_to_original.push_back(static_cast<int>(i));
          }
        }
        const Matching slots =
            optimal_matching(expanded, engine_->num_sats(),
                             slot_of_station[engine_->num_stations()]);
        for (int ei : slots) m.push_back(expanded_to_original[ei]);
        break;
      }
    }
  }

  // Invariant audit: the selected matching must be physically valid (no
  // double-booked satellite; stations within beam capacity) and — for the
  // Gale-Shapley matcher — stable.  Optimal/greedy matchings are valid but
  // intentionally not stable, so stability is only asserted for kStable.
#ifdef DGS_ENABLE_DCHECKS
  const bool audit_stability = config_.matcher == MatcherKind::kStable;
  const std::string audit =
      any_beams ? validate_b_matching(edges, m, engine_->num_sats(),
                                      capacities, audit_stability)
                : validate_matching(edges, m, engine_->num_sats(),
                                    engine_->num_stations(), audit_stability);
  DGS_CHECK(audit.empty(), audit);
#endif

  std::vector<ContactEdge> out;
  out.reserve(m.size());
  for (int ei : m) out.push_back(contacts[ei]);
  if (matched_edges_ != nullptr) {
    matched_edges_->inc(static_cast<double>(m.size()));
  }
  return out;
}

}  // namespace dgs::core
