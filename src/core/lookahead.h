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

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/value.h"
#include "src/core/visibility.h"

namespace dgs::core {

/// A maximal contiguous run of visibility between one satellite-station
/// pair.  Its per-step link predictions, retained for execution, are a
/// chain through the window's edges (PassBlocks).
struct PassBlock {
  int sat = 0;
  int station = 0;
  int first_step = 0;             ///< Window step index of the first edge.
  int length = 0;                 ///< Steps, one edge each.
  std::uint32_t first_edge = 0;   ///< Its index in edges[first_step].
  /// Volume the block can move [bytes] at the predicted rates: the sum of
  /// rate * step_seconds / 8 over its edges, added in step order.
  double capacity_bytes = 0.0;

  int last_step() const { return first_step + length - 1; }
};

/// One window's pass blocks.  Each instant's edges are stored once, as
/// contacts() returns them.  A block's edges are edges[first_step]
/// [first_edge], then at each next step k + 1 the edge next[k][j] names
/// for the edge j it reached at step k, `length` edges ending at kEnd
/// (DESIGN.md §9).
struct PassBlocks {
  static constexpr std::uint32_t kEnd = 0xffffffffu;

  std::vector<PassBlock> blocks;  ///< In opening order.
  /// Per window step: that instant's edges, in contacts() order.
  std::vector<std::vector<ContactEdge>> edges;
  /// Per window step and edge: its block's edge at the next step, kEnd
  /// after the last.
  std::vector<std::vector<std::uint32_t>> next;

  std::size_t size() const { return blocks.size(); }
};

/// Weather-independent geometry of planning instants, reused across the
/// look-ahead windows of a session (DESIGN.md §9).  A replan sweeps
/// instants an earlier window already swept; when an instant's epoch has
/// the same bits as the one a slot holds (util::Epoch::bits, the whole
/// input of VisibilityEngine::geometry), the slot's visibility lists are
/// reused and only weather and link budgets are evaluated again.  The
/// bits are the key, not the grid step: the same step reached through
/// another rounding path is a different epoch and propagates differently.
///
/// Instant i steps after the table's first instant lives in slot i mod
/// the slot count; a slot holding another epoch is recomputed in place.
/// Driver thread only.  A table serves the one engine of its first
/// lookup (with one spatial-index setting) and must not outlive it.
class PlanGeometry {
 public:
  /// Give it the planning window length, so that the instants of one
  /// window never share a slot.
  explicit PlanGeometry(int slots = 1);

  /// engine.contacts(when, leads, down), bit for bit and with the same
  /// dgs_vis_* counter increments.  `step_seconds` is the planning grid
  /// spacing; it only places instants in slots.  Throws if `engine` is
  /// not the engine of the table's first lookup.
  std::vector<ContactEdge> contacts(const VisibilityEngine& engine,
                                    const util::Epoch& when,
                                    double step_seconds,
                                    std::span<const double> forecast_lead_s,
                                    std::span<const char> station_down);

  std::int64_t lookups() const { return lookups_; }
  std::int64_t hits() const { return hits_; }

 private:
  /// What the edge stage reads of one instant's geometry, compacted.
  struct Slot {
    bool filled = false;
    util::Epoch::Bits key;
    GeometryWork work;                   ///< Replayed into the counters.
    /// Every station's list, concatenated in station order; station g's
    /// list is visible[offsets[g], offsets[g + 1]).
    std::vector<VisibleSat> visible;
    std::vector<std::uint32_t> offsets;
  };

  Slot& slot_of(const util::Epoch& when, double step_seconds);

  std::vector<Slot> slots_;
  const VisibilityEngine* engine_ = nullptr;  ///< Set by the first lookup.
  util::Epoch anchor_;  ///< The first lookup's instant, in slot 0.
  std::vector<std::span<const VisibleSat>> lists_;  ///< Views of a slot.
  std::int64_t lookups_ = 0;
  std::int64_t hits_ = 0;
};

/// Sweeps [start, start + steps*dt) and fuses edges into pass blocks.
/// Forecast lead grows with the step offset: planning further into the
/// window uses older information, exactly as a real uploaded plan would.
/// `station_down` (empty or num_stations) excludes faulted stations from
/// every swept instant — the planner schedules around known outages.
/// Blocks come in opening order: by first step, then contacts() order.
/// `geometry` (optional) reuses instants across calls; without one a
/// cold single-slot table serves the call, with identical output.
PassBlocks find_pass_blocks(
    const VisibilityEngine& engine, const util::Epoch& start, int steps,
    double step_seconds, std::span<const char> station_down = {},
    PlanGeometry* geometry = nullptr);

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
                         std::span<const char> station_down = {},
                         PlanGeometry* geometry = nullptr);

}  // namespace dgs::core
