#include "src/core/lookahead.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace dgs::core {

PlanGeometry::PlanGeometry(int slots) {
  DGS_ENSURE(slots > 0, "slots=" << slots);
  slots_.resize(static_cast<std::size_t>(slots));
}

PlanGeometry::Slot& PlanGeometry::slot_of(const util::Epoch& when,
                                          double step_seconds) {
  if (lookups_ == 0) anchor_ = when;
  // Placement only (the key decides reuse), so any rounding will do.
  const double i = std::round(when.seconds_since(anchor_) / step_seconds);
  const auto n = static_cast<std::int64_t>(slots_.size());
  std::int64_t k = std::abs(i) < 1e15 ? static_cast<std::int64_t>(i) % n : 0;
  if (k < 0) k += n;
  return slots_[static_cast<std::size_t>(k)];
}

std::vector<ContactEdge> PlanGeometry::contacts(
    const VisibilityEngine& engine, const util::Epoch& when,
    double step_seconds, std::span<const double> forecast_lead_s,
    std::span<const char> station_down) {
  DGS_ENSURE(step_seconds > 0.0, "step_seconds=" << step_seconds);
  if (engine_ == nullptr) engine_ = &engine;
  DGS_ENSURE(engine_ == &engine, "a PlanGeometry serves one engine");
  DGS_TRACE_SPAN("vis.contacts");

  Slot& slot = slot_of(when, step_seconds);
  const util::Epoch::Bits key = when.bits();
  ++lookups_;
  if (slot.filled && slot.key == key) {
    ++hits_;
    engine.count_geometry(slot.work);
  } else {
    const StepGeometry& geo = engine.geometry(when);
    slot.filled = true;
    slot.key = key;
    slot.work = geo.work;
    // Sized exactly, so a slot holds at most its largest instant.
    std::size_t total = 0;
    for (const std::vector<VisibleSat>& list : geo.per_station) {
      total += list.size();
    }
    slot.visible.clear();
    slot.visible.reserve(total);
    slot.offsets.assign(1, 0);
    for (const std::vector<VisibleSat>& list : geo.per_station) {
      slot.visible.insert(slot.visible.end(), list.begin(), list.end());
      slot.offsets.push_back(static_cast<std::uint32_t>(slot.visible.size()));
    }
  }

  const std::span<const VisibleSat> all(slot.visible);
  lists_.resize(slot.offsets.size() - 1);
  for (std::size_t g = 0; g < lists_.size(); ++g) {
    lists_[g] = all.subspan(slot.offsets[g],
                            slot.offsets[g + 1] - slot.offsets[g]);
  }
  return engine.edges(when, lists_, forecast_lead_s, station_down);
}

PassBlocks find_pass_blocks(const VisibilityEngine& engine,
                            const util::Epoch& start, int steps,
                            double step_seconds,
                            std::span<const char> station_down,
                            PlanGeometry* geometry) {
  DGS_ENSURE(steps > 0 && step_seconds > 0.0,
             "steps=" << steps << ", step_seconds=" << step_seconds);
  DGS_TRACE_SPAN("plan.blocks");
  PlanGeometry cold;
  PlanGeometry& table = geometry != nullptr ? *geometry : cold;

  PassBlocks out;
  out.edges.reserve(static_cast<std::size_t>(steps));
  out.next.reserve(static_cast<std::size_t>(steps));
  // Per (sat, station): latest block index, -1 if none (DESIGN.md §9).
  const auto num_stations = static_cast<std::size_t>(engine.num_stations());
  std::vector<int> latest(
      static_cast<std::size_t>(engine.num_sats()) * num_stations, -1);
  // Per block: its edge at the latest step it reached.
  std::vector<std::uint32_t> tail;

  // The plan is computed at `start`; looking `k` steps ahead means relying
  // on a forecast with lead k*dt.
  std::vector<double> leads(engine.num_sats(), 0.0);
  for (int k = 0; k < steps; ++k) {
    const util::Epoch t = start.plus_seconds(k * step_seconds);
    std::fill(leads.begin(), leads.end(), k * step_seconds);
    const std::vector<ContactEdge>& edges = out.edges.emplace_back(
        table.contacts(engine, t, step_seconds, leads, station_down));
    out.next.emplace_back(edges.size(), PassBlocks::kEnd);

    for (std::uint32_t i = 0; i < edges.size(); ++i) {
      const ContactEdge& e = edges[i];
      int& slot = latest[static_cast<std::size_t>(e.sat) * num_stations +
                         static_cast<std::size_t>(e.station)];
      if (slot >= 0 &&
          out.blocks[static_cast<std::size_t>(slot)].last_step() == k - 1) {
        std::uint32_t& at = tail[static_cast<std::size_t>(slot)];
        out.next[static_cast<std::size_t>(k) - 1][at] = i;
        at = i;
      } else {
        PassBlock b;
        b.sat = e.sat;
        b.station = e.station;
        b.first_step = k;
        b.first_edge = i;
        out.blocks.push_back(b);
        tail.push_back(i);
        slot = static_cast<int>(out.blocks.size()) - 1;
      }
      PassBlock& b = out.blocks[static_cast<std::size_t>(slot)];
      ++b.length;
      b.capacity_bytes += e.predicted_rate_bps * step_seconds / 8.0;
    }
  }
  return out;
}

HorizonPlan plan_horizon(const VisibilityEngine& engine,
                         const std::vector<OnboardQueue>& queues,
                         const ValueFunction& value, const util::Epoch& start,
                         int steps, double step_seconds,
                         std::span<const char> station_down,
                         PlanGeometry* geometry) {
  DGS_ENSURE_EQ(static_cast<int>(queues.size()), engine.num_sats());
  DGS_TRACE_SPAN("plan.horizon");
  const PassBlocks found = find_pass_blocks(engine, start, steps,
                                            step_seconds, station_down,
                                            geometry);
  const std::vector<PassBlock>& blocks = found.blocks;

  // Score blocks against the queue snapshot at the block's mid-time.
  // Per-block values are computed in parallel (pure const reads of the
  // queues); the filtered list is then built serially in block order, so
  // the ranking is identical at any thread count.
  std::vector<double> block_value(blocks.size());
  const auto score = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const PassBlock& b = blocks[static_cast<std::size_t>(i)];
      const double mid_s =
          (b.first_step + static_cast<double>(b.length) / 2.0) *
          step_seconds;
      block_value[static_cast<std::size_t>(i)] = value.edge_value(
          queues[b.sat], start.plus_seconds(mid_s), b.capacity_bytes);
    }
  };
  util::parallel_for(engine.thread_pool(),
                     static_cast<std::int64_t>(blocks.size()), score);

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
    scored.push_back(Scored{i, v / static_cast<double>(b.length)});
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
    std::uint32_t e = b.first_edge;
    for (int k = b.first_step; k <= b.last_step(); ++k) {
      sat_busy[b.sat][k] = 1;
      gs_busy[b.station][k] = 1;
      plan.per_step[k].push_back(found.edges[k][e]);
      e = found.next[k][e];
    }
  }
  return plan;
}

}  // namespace dgs::core
