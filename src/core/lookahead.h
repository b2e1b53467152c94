// Look-ahead (time-expanded) scheduling — the paper's future work.
//
// §3.1 closes with: "we run the stable matching algorithm at each time
// instance ... We do not optimize for links across time.  This optimization
// can further benefit DGS but we leave this to future work."  This module
// is that optimization: it sweeps the contact graph over a horizon, fuses
// per-instant edges into contiguous *pass blocks*, scores each block with
// the value function against a queue snapshot, and greedily allocates
// non-overlapping blocks (per satellite and per station) by value density.
// A satellite then holds one station for a whole pass instead of being
// re-matched every quantum.
#pragma once

#include <span>
#include <vector>

#include "src/core/value.h"
#include "src/core/visibility.h"

namespace dgs::core {

/// A maximal contiguous run of visibility between one satellite-station
/// pair, with the per-step link predictions retained for execution.
struct PassBlock {
  int sat = 0;
  int station = 0;
  int first_step = 0;                 ///< Window step index of the first edge.
  std::vector<ContactEdge> steps;     ///< One edge per step, contiguous.

  int last_step() const {
    return first_step + static_cast<int>(steps.size()) - 1;
  }
  /// Volume the block can move [bytes] at the predicted rates.
  double capacity_bytes(double step_seconds) const;
};

/// Sweeps [start, start + steps*dt) and fuses edges into pass blocks.
/// Forecast lead grows with the step offset: planning further into the
/// window uses older information, exactly as a real uploaded plan would.
/// `station_down` (empty or num_stations) excludes faulted stations from
/// every swept instant — the planner schedules around known outages.
/// Blocks come in opening order: by first step, then contacts() order.
std::vector<PassBlock> find_pass_blocks(
    const VisibilityEngine& engine, const util::Epoch& start, int steps,
    double step_seconds, std::span<const char> station_down = {});

/// One planned horizon: per window step, the edges to execute.
struct HorizonPlan {
  std::vector<std::vector<ContactEdge>> per_step;
};

/// Greedy value-density allocation of pass blocks.  `queues` is the queue
/// state at `start` (a snapshot; drain during the window is intentionally
/// not projected — see DESIGN.md).  At most one concurrent block per
/// satellite and per station (beam_count is not considered here).
HorizonPlan plan_horizon(const VisibilityEngine& engine,
                         const std::vector<OnboardQueue>& queues,
                         const ValueFunction& value, const util::Epoch& start,
                         int steps, double step_seconds,
                         std::span<const char> station_down = {});

}  // namespace dgs::core
