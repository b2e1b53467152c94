#pragma once
// dgslint fixture: R7 positives — callable members in an options struct.
#include <functional>
#include <vector>

using EdgeHook = std::function<double(int, int, double)>;
typedef double (*RawHook)(int);

struct SimulationOptions {
  double duration_hours = 24.0;
  std::function<double(int, int, double)> edge_value_modifier;  // finding
  double (*raw_modifier)(int) = nullptr;  // finding: function pointer
  int helper() const { return 1; }
  EdgeHook hook;  // finding: callable alias
  std::vector<std::function<void()>> hooks;  // finding: container of callables
  // dgslint: allow(R7) -- fixture: a suppressed callable stays silent
  RawHook suppressed = nullptr;
};
