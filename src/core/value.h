// Value functions Phi (paper §3.1).
//
// Phi(x, t) assigns a value to transmitting data subset x at elapsed time t
// since capture.  The scheduler weights each candidate satellite-station
// edge by the value of the data the satellite could send over that link in
// the next scheduling quantum, so a single framework optimizes latency,
// throughput, or operator-defined priorities (SLAs, bidding).
#pragma once

#include <memory>
#include <string_view>

#include "src/core/data_queue.h"

namespace dgs::core {

class ValueFunction {
 public:
  virtual ~ValueFunction() = default;

  /// Value of using a link that can move `link_bytes` from `queue` at `now`.
  /// Must be >= 0; 0 means the link is worthless (e.g. empty queue).
  virtual double edge_value(const OnboardQueue& queue, const util::Epoch& now,
                            double link_bytes) const = 0;

  virtual std::string_view name() const = 0;
};

/// Phi(x, t) = t: the marginal value of a byte equals its age, so links that
/// can drain the oldest data win — the latency-optimized configuration
/// ("DGS (L)" in Fig. 3c).  Value returned is GB-minutes of age drained.
class LatencyValue final : public ValueFunction {
 public:
  double edge_value(const OnboardQueue& queue, const util::Epoch& now,
                    double link_bytes) const override;
  std::string_view name() const override { return "latency"; }
};

/// Phi(x, t) = |x|: value is the volume moved, so the highest-rate links win
/// regardless of data age — the throughput-optimized configuration
/// ("DGS (T)" in Fig. 3c).  Value returned is GB moved.
class ThroughputValue final : public ValueFunction {
 public:
  double edge_value(const OnboardQueue& queue, const util::Epoch& now,
                    double link_bytes) const override;
  std::string_view name() const override { return "throughput"; }
};

enum class ValueKind { kLatency, kThroughput };

std::unique_ptr<ValueFunction> make_value_function(ValueKind kind);

}  // namespace dgs::core
