#pragma once
// dgslint fixture: R10 negatives — every member walked, no finding.
#include <string>
#include <vector>

struct TenantSpec {
  std::string name;
  std::vector<int> satellites;
  double weight = 1.0;
  bool owns(int sat) const { return !satellites.empty() && sat >= 0; }
};
