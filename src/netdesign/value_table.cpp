#include "src/netdesign/value_table.h"

#include <cmath>

#include "src/core/visibility.h"
#include "src/util/check.h"

namespace dgs::netdesign {

double CandidateEntry::standalone_gb() const {
  double total = 0.0;
  for (const PassValue& pass : passes) {
    for (double v : pass.step_values) total += v;
  }
  return total;
}

ValueTable build_value_table(
    const std::vector<groundseg::SatelliteConfig>& sats,
    const std::vector<CandidateSite>& pool,
    const weather::WeatherProvider* forecast_weather,
    const ValueTableOptions& opts) {
  DGS_ENSURE(!sats.empty() && !pool.empty(),
             "sats=" << sats.size() << " pool=" << pool.size());
  DGS_ENSURE(opts.duration_hours > 0.0 && opts.step_seconds > 0.0,
             "duration_hours=" << opts.duration_hours
                               << " step_seconds=" << opts.step_seconds);

  ValueTable table;
  table.num_sats = static_cast<int>(sats.size());
  table.num_steps = static_cast<int>(
      std::llround(opts.duration_hours * 3600.0 / opts.step_seconds));
  table.step_seconds = opts.step_seconds;
  DGS_ENSURE_GE(table.num_steps, 1);

  const std::vector<groundseg::GroundStation> stations =
      pool_stations(pool);
  core::VisibilityEngine engine(sats, stations, forecast_weather);
  util::ThreadPool thread_pool(opts.parallel);
  engine.set_thread_pool(&thread_pool);
  core::VisibilityCounts vis_counts;
  engine.set_counts(&vis_counts);

  obs::Counter* candidates_metric = nullptr;
  obs::Counter* passes_metric = nullptr;
  if (opts.metrics != nullptr) {
    candidates_metric = opts.metrics->counter(
        "dgs_netdesign_candidates_total",
        "Candidate sites swept into value tables");
    passes_metric = opts.metrics->counter(
        "dgs_netdesign_value_passes_total",
        "(candidate, satellite) visibility passes tabulated");
  }

  const int num_candidates = static_cast<int>(pool.size());
  table.candidates.resize(pool.size());
  for (int c = 0; c < num_candidates; ++c) {
    CandidateEntry& entry = table.candidates[static_cast<std::size_t>(c)];
    entry.candidate = c;
    entry.cost = pool[static_cast<std::size_t>(c)].install_cost;
    entry.availability = pool[static_cast<std::size_t>(c)].availability;
  }

  // Open-pass bookkeeping per (candidate, sat): index into the entry's
  // passes vector while the window is still contiguous, -1 otherwise.
  std::vector<int> open_pass(
      static_cast<std::size_t>(num_candidates) *
          static_cast<std::size_t>(table.num_sats),
      -1);
  std::vector<int> last_step(open_pass.size(), -2);
  const auto slot = [&](int c, int s) {
    return static_cast<std::size_t>(c) *
               static_cast<std::size_t>(table.num_sats) +
           static_cast<std::size_t>(s);
  };

  // The step loop itself is serial: contacts() already parallelizes its
  // inner sweeps and its output is thread-count-invariant, so the
  // assembled table is too.
  for (int step = 0; step < table.num_steps; ++step) {
    const util::Epoch when =
        opts.start.plus_seconds(step * opts.step_seconds);
    for (const core::ContactEdge& e : engine.contacts(when)) {
      CandidateEntry& entry =
          table.candidates[static_cast<std::size_t>(e.station)];
      const double value_gb = entry.availability * e.predicted_rate_bps *
                              opts.step_seconds / 8.0 / 1e9;
      const std::size_t key = slot(e.station, e.sat);
      if (last_step[key] == step - 1 && open_pass[key] >= 0) {
        entry.passes[static_cast<std::size_t>(open_pass[key])]
            .step_values.push_back(value_gb);
      } else {
        PassValue pass;
        pass.sat = e.sat;
        pass.first_step = step;
        pass.step_values.push_back(value_gb);
        open_pass[key] = static_cast<int>(entry.passes.size());
        entry.passes.push_back(std::move(pass));
        if (passes_metric != nullptr) passes_metric->inc();
      }
      last_step[key] = step;
    }
  }

  if (opts.metrics != nullptr) {
    candidates_metric->inc(static_cast<double>(num_candidates));
    // The engine's work, published once the sweep is done.
    core::for_each_visibility_count(
        vis_counts, [&](const char* name, const char* help, std::int64_t n) {
          opts.metrics->counter(name, help)->inc(static_cast<double>(n));
        });
  }
  return table;
}

}  // namespace dgs::netdesign
