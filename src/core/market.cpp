#include "src/core/market.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace dgs::core {

BidMatrix::BidMatrix(std::vector<int> operator_of)
    : operator_of_(std::move(operator_of)) {
  DGS_ENSURE(!operator_of_.empty(), "empty operator mapping");
}

void BidMatrix::set_bid(int operator_id, int station, double multiplier) {
  DGS_ENSURE_GT(multiplier, 0.0);
  station_bid_[{operator_id, station}] = multiplier;
}

void BidMatrix::set_default_bid(int operator_id, double multiplier) {
  DGS_ENSURE_GT(multiplier, 0.0);
  default_bid_[operator_id] = multiplier;
}

double BidMatrix::multiplier(int sat, int station) const {
  const int op = operator_of_.at(sat);
  if (const auto it = station_bid_.find({op, station});
      it != station_bid_.end()) {
    return it->second;
  }
  if (const auto it = default_bid_.find(op); it != default_bid_.end()) {
    return it->second;
  }
  return 1.0;
}

std::vector<double> BidMatrix::value_scale(int num_stations) const {
  DGS_ENSURE_GT(num_stations, 0);
  std::vector<double> table;
  table.reserve(operator_of_.size() * static_cast<std::size_t>(num_stations));
  for (std::size_t s = 0; s < operator_of_.size(); ++s) {
    for (int g = 0; g < num_stations; ++g) {
      table.push_back(multiplier(static_cast<int>(s), g));
    }
  }
  return table;
}

TenantArbiter::TenantArbiter(std::vector<TenantSpec> tenants, int num_sats)
    : tenants_(std::move(tenants)) {
  DGS_ENSURE(!tenants_.empty(), "tenant arbiter needs at least one tenant");
  DGS_ENSURE_GT(num_sats, 0);
  tenant_of_.assign(static_cast<std::size_t>(num_sats), -1);
  double total_weight = 0.0;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    DGS_ENSURE_GT(tenants_[t].weight, 0.0);
    total_weight += tenants_[t].weight;
    for (const int s : tenants_[t].satellites) {
      DGS_ENSURE(s >= 0 && s < num_sats,
                 "tenant '" << tenants_[t].name << "' satellite " << s
                            << " out of range [0, " << num_sats << ")");
      DGS_ENSURE(tenant_of_[static_cast<std::size_t>(s)] < 0,
                 "satellite " << s << " claimed by two tenants");
      tenant_of_[static_cast<std::size_t>(s)] = static_cast<int>(t);
    }
  }
  entitlement_.resize(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    entitlement_[t] = tenants_[t].weight / total_weight;
  }
  delivered_.assign(tenants_.size(), 0.0);
  assignments_.assign(tenants_.size(), 0);
  scale_.assign(tenants_.size(), 1.0);
  sat_scale_.assign(static_cast<std::size_t>(num_sats), 1.0);
}

double TenantArbiter::share(int t) const {
  double total = 0.0;
  for (const double d : delivered_) total += d;
  return total > 0.0 ? delivered_.at(t) / total : entitlement_.at(t);
}

void TenantArbiter::refresh_scales() {
  double total = 0.0;
  for (const double d : delivered_) total += d;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const double realized =
        total > 0.0 ? delivered_[t] / total : entitlement_[t];
    const double deficit =
        std::clamp(1.0 - realized / entitlement_[t], -4.0, 1.0);
    scale_[t] = std::exp2(kDeficitGain * deficit);
  }
  for (std::size_t s = 0; s < sat_scale_.size(); ++s) {
    const int t = tenant_of_[s];
    sat_scale_[s] = t >= 0 ? scale_[static_cast<std::size_t>(t)] : 1.0;
  }
}

}  // namespace dgs::core
