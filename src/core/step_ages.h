// Delay ledgers kept as whole-step ages (DESIGN.md §16).
//
// Every delay a Session reports runs from a start epoch to an end epoch
// that the session can rebuild.  The start is a step start or the one
// initial-backlog epoch: chunks are captured on the step grid, and acks
// measure from the step a batch was sent.  The end is fixed by the step
// that recorded the entry.  So a ledger keeps only the whole number of
// steps between the two, and report() recomputes the minutes with the
// expression the step path used.  The result is the same double, which
// the session asserts as each entry is recorded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace dgs::core {

/// One delay ledger.  Entry i was recorded at step d, the step whose run
/// of `per_step` holds it, and its delay started at step d - age[i]; step
/// -1 stands for the initial-backlog epoch.
struct StepAges {
  std::vector<std::uint32_t> age;       ///< Whole steps, in record order.
  std::vector<std::uint32_t> per_step;  ///< Entries recorded at each step.

  std::size_t size() const { return age.size(); }

  /// Opens the count of the step about to run: once per step.
  void begin_step() { per_step.push_back(0); }
  /// Records one entry at the open step.
  void add(std::uint32_t steps) {
    age.push_back(steps);
    per_step.back() += 1;
  }

  /// Calls f(d, c) for every entry in record order, with d the step that
  /// recorded it and c the step its delay started at.
  template <class F>
  void for_each(F&& f) const {
    std::size_t i = 0;
    for (std::size_t d = 0; d < per_step.size(); ++d) {
      const auto step = static_cast<std::int64_t>(d);
      for (const std::size_t end = i + per_step[d]; i < end; ++i) {
        f(step, step - age[i]);
      }
    }
  }

  /// Checkpoint serialization (core/checkpoint.h): both columns as LEB128.
  /// The reader then requires one count per step taken (`steps`), counts
  /// that add up to the entries, and every start step at or after
  /// `first_start` (-1 where an initial backlog exists, else 0).
  template <class Ar>
  void io(Ar& ar, std::int64_t steps, std::int64_t first_start) {
    ar.leb128(age);
    ar.leb128(per_step);
    if constexpr (Ar::kReading) {
      ar.check_size(per_step.size(), static_cast<std::size_t>(steps));
      ar.check_size(std::accumulate(per_step.begin(), per_step.end(),
                                    std::size_t{0}),
                    age.size());
      for_each([&ar, first_start](std::int64_t d, std::int64_t c) {
        ar.check_index(c - first_start, d + 1 - first_start);
      });
    }
  }
};

}  // namespace dgs::core
