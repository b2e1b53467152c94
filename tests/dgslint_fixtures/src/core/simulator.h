#pragma once
// dgslint fixture: R10 positives — option members walk_options misses.
#include <string>
#include <vector>

struct TenantSpec;

struct SimulationOptions {
  double duration_hours = 24.0;
  double forgotten_knob = 0.0;  // finding: not walked
  int parallel = 1;  // excluded: results are identical at any thread count
  std::vector<TenantSpec> tenants;
  // dgslint: allow(R10) -- fixture: a suppressed member stays silent
  double suppressed = 0.0;
  bool validate(int num_stations = -1, std::vector<int> ids = {}) const;
};

template <class V, class O>
void walk_options(V& v, O& o) {
  // o.forgotten_knob in a comment, or "forgotten_knob" in a string, does
  // not walk it.
  v.real("duration_hours", o.duration_hours);
  v.list("tenants", o.tenants, [&](auto& t) {
    v.text("name", t.name);
    v.real("weight", t.weight);
    v.list("satellites", t.satellites, [&](auto& s) { v.integer("", s); });
  });
}
