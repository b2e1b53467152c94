#include "src/core/lookahead.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace dgs::core {

double PassBlock::capacity_bytes(double step_seconds) const {
  double bytes = 0.0;
  for (const ContactEdge& e : steps) {
    bytes += e.predicted_rate_bps * step_seconds / 8.0;
  }
  return bytes;
}

std::vector<PassBlock> find_pass_blocks(
    const VisibilityEngine& engine, const util::Epoch& start, int steps,
    double step_seconds, std::span<const char> station_down) {
  DGS_ENSURE(steps > 0 && step_seconds > 0.0,
             "steps=" << steps << ", step_seconds=" << step_seconds);
  DGS_TRACE_SPAN("plan.blocks");

  std::vector<PassBlock> blocks;
  // Per (sat, station): latest block index, -1 if none (DESIGN.md §9).
  const auto num_stations = static_cast<std::size_t>(engine.num_stations());
  std::vector<int> latest(
      static_cast<std::size_t>(engine.num_sats()) * num_stations, -1);

  // The plan is computed at `start`; looking `k` steps ahead means relying
  // on a forecast with lead k*dt.
  std::vector<double> leads(engine.num_sats(), 0.0);
  for (int k = 0; k < steps; ++k) {
    const util::Epoch t = start.plus_seconds(k * step_seconds);
    std::fill(leads.begin(), leads.end(), k * step_seconds);
    const std::vector<ContactEdge> edges =
        engine.contacts(t, leads, station_down);

    for (const ContactEdge& e : edges) {
      int& slot = latest[static_cast<std::size_t>(e.sat) * num_stations +
                         static_cast<std::size_t>(e.station)];
      if (slot >= 0 && blocks[slot].last_step() == k - 1) {
        blocks[slot].steps.push_back(e);
      } else {
        PassBlock b;
        b.sat = e.sat;
        b.station = e.station;
        b.first_step = k;
        b.steps.push_back(e);
        blocks.push_back(std::move(b));
        slot = static_cast<int>(blocks.size()) - 1;
      }
    }
  }
  return blocks;
}

HorizonPlan plan_horizon(const VisibilityEngine& engine,
                         const std::vector<OnboardQueue>& queues,
                         const ValueFunction& value, const util::Epoch& start,
                         int steps, double step_seconds,
                         std::span<const char> station_down) {
  DGS_ENSURE_EQ(static_cast<int>(queues.size()), engine.num_sats());
  DGS_TRACE_SPAN("plan.horizon");
  std::vector<PassBlock> blocks =
      find_pass_blocks(engine, start, steps, step_seconds, station_down);

  // Score blocks against the queue snapshot at the block's mid-time.
  // Per-block values are computed in parallel (pure const reads of the
  // queues); the filtered list is then built serially in block order, so
  // the ranking is identical at any thread count.
  std::vector<double> block_value(blocks.size());
  const auto score = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const PassBlock& b = blocks[static_cast<std::size_t>(i)];
      const double mid_s =
          (b.first_step + static_cast<double>(b.steps.size()) / 2.0) *
          step_seconds;
      block_value[static_cast<std::size_t>(i)] =
          value.edge_value(queues[b.sat], start.plus_seconds(mid_s),
                           b.capacity_bytes(step_seconds));
    }
  };
  if (util::ThreadPool* pool = engine.thread_pool(); pool != nullptr) {
    pool->parallel_for(static_cast<std::int64_t>(blocks.size()), score);
  } else {
    score(0, static_cast<std::int64_t>(blocks.size()));
  }

  struct Scored {
    int block_index;
    double density;  ///< value per step
  };
  std::vector<Scored> scored;
  scored.reserve(blocks.size());
  for (int i = 0; i < static_cast<int>(blocks.size()); ++i) {
    const double v = block_value[static_cast<std::size_t>(i)];
    if (v <= 0.0) continue;
    const PassBlock& b = blocks[i];
    scored.push_back(Scored{i, v / static_cast<double>(b.steps.size())});
  }
  std::sort(scored.begin(), scored.end(), [&](const Scored& a,
                                              const Scored& b) {
    if (a.density != b.density) return a.density > b.density;
    return a.block_index < b.block_index;  // deterministic ties
  });

  // Greedy allocation with per-satellite and per-station busy masks over
  // the window steps.
  const auto mask_size = static_cast<std::size_t>(steps);
  std::vector<std::vector<char>> sat_busy(
      engine.num_sats(), std::vector<char>(mask_size, 0));
  std::vector<std::vector<char>> gs_busy(
      engine.num_stations(), std::vector<char>(mask_size, 0));

  HorizonPlan plan;
  plan.per_step.resize(mask_size);
  for (const Scored& s : scored) {
    const PassBlock& b = blocks[s.block_index];
    bool conflict = false;
    for (int k = b.first_step; k <= b.last_step() && !conflict; ++k) {
      conflict = sat_busy[b.sat][k] || gs_busy[b.station][k];
    }
    if (conflict) continue;
    for (int k = b.first_step; k <= b.last_step(); ++k) {
      sat_busy[b.sat][k] = 1;
      gs_busy[b.station][k] = 1;
      plan.per_step[k].push_back(b.steps[k - b.first_step]);
    }
  }
  return plan;
}

}  // namespace dgs::core
