#include "src/core/scheduler.h"

#include <algorithm>

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
  // A beamforming station (beam_count > 1) holds up to beam_count links.
  capacities_.reserve(static_cast<std::size_t>(engine_->num_stations()));
  for (int g = 0; g < engine_->num_stations(); ++g) {
    capacities_.push_back(std::max(1, engine_->station(g).beam_count));
  }
}

std::vector<ContactEdge> Scheduler::schedule_instant(
    const util::Epoch& when, const std::vector<OnboardQueue>& queues,
    std::span<const double> forecast_lead_s,
    std::span<const char> station_down) const {
  DGS_ENSURE_EQ(static_cast<int>(queues.size()), engine_->num_sats());
  DGS_TRACE_SPAN("sched.instant");

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

  DGS_TRACE_SPAN("sched.match");
  const Matching m =
      run_matcher(config_.matcher, edges, engine_->num_sats(), capacities_);

  // Invariant audit: the selected matching must be physically valid (no
  // double-booked satellite; stations within beam capacity) and — for the
  // Gale-Shapley matcher — stable.  Optimal/greedy matchings are valid but
  // intentionally not stable, so stability is only asserted for kStable.
#ifdef DGS_ENABLE_DCHECKS
  const std::string audit =
      validate_matching(edges, m, engine_->num_sats(), capacities_,
                        config_.matcher == MatcherKind::kStable);
  DGS_CHECK(audit.empty(), audit);
#endif

  std::vector<ContactEdge> out;
  out.reserve(m.size());
  for (int ei : m) out.push_back(contacts[ei]);
  return out;
}

}  // namespace dgs::core
