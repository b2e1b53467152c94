#include "src/core/value.h"

#include <algorithm>

#include "src/util/check.h"

namespace dgs::core {
namespace {
constexpr double kGb = 1e9;
}

double LatencyValue::edge_value(const OnboardQueue& queue,
                                const util::Epoch& now,
                                double link_bytes) const {
  double budget = std::min(link_bytes, queue.queued_bytes());
  double value = 0.0;
  for (const DataChunk& c : queue.chunks()) {
    if (budget <= 0.0) break;
    const double take = std::min(budget, c.remaining_bytes);
    const double age_minutes = now.minutes_since(c.capture);
    // Phi(x, t) = priority * t: SLA tiers scale the urgency of their age.
    // A small age floor keeps brand-new urgent data from valuing at zero.
    value += c.priority * (take / kGb) * std::max(0.1, age_minutes);
    budget -= take;
  }
  return value;
}

double ThroughputValue::edge_value(const OnboardQueue& queue,
                                   const util::Epoch& /*now*/,
                                   double link_bytes) const {
  return std::min(link_bytes, queue.queued_bytes()) / kGb;
}

std::unique_ptr<ValueFunction> make_value_function(ValueKind kind) {
  switch (kind) {
    case ValueKind::kLatency:
      return std::make_unique<LatencyValue>();
    case ValueKind::kThroughput:
      return std::make_unique<ThroughputValue>();
  }
  DGS_CHECK(false, "unknown value kind " << static_cast<int>(kind));
}

}  // namespace dgs::core
