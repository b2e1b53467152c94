#pragma once
// dgslint fixture: R7 negatives — plain-data options, no finding.
#include <functional>
#include <vector>

struct SchedulerConfig {
  int matcher = 0;
  /// A comment may name std::function without a finding.
  const std::vector<double>* value_scale = nullptr;
  std::vector<double> table{1.0, 2.0};
  std::function<void()> make_hook() const;  // a method, not a member
  double weight(int sat) const { return table[static_cast<unsigned>(sat)]; }
  bool enabled = true;
};

// Only the named option structs are held to R7.
struct PolicyHooks {
  std::function<void()> on_step;
};
