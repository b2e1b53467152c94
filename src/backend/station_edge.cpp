#include "src/backend/station_edge.h"

#include <algorithm>

#include "src/util/check.h"

namespace dgs::backend {

StationEdgeQueue::StationEdgeQueue(double backhaul_bps)
    : backhaul_bps_(backhaul_bps) {
  DGS_ENSURE_GT(backhaul_bps, 0.0);
}

void StationEdgeQueue::receive(double bytes, double priority,
                               const util::Epoch& capture,
                               const util::Epoch& ground_rx) {
  DGS_ENSURE(bytes >= 0.0 && priority >= 0.0,
             "bytes=" << bytes << ", priority=" << priority);
  if (bytes == 0.0) return;
  EdgeItem item{capture, ground_rx, bytes, bytes, priority};
  // Strict priority, FIFO within a class; fast path appends at the back.
  auto before = [](const EdgeItem& a, const EdgeItem& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.ground_rx < b.ground_rx;
  };
  if (items_.empty() || !before(item, items_.back())) {
    items_.push_back(std::move(item));
  } else {
    const auto it = std::find_if(
        items_.begin(), items_.end(),
        [&](const EdgeItem& e) { return before(item, e); });
    items_.insert(it, std::move(item));
  }
  queued_bytes_ += bytes;
}

double StationEdgeQueue::drain(double dt_seconds, const util::Epoch& now,
                               const CloudArrivalCallback& on_cloud_arrival,
                               double rate_multiplier) {
  DGS_ENSURE_GE(dt_seconds, 0.0);
  DGS_ENSURE_GE(rate_multiplier, 0.0);
  double budget = backhaul_bps_ * rate_multiplier * dt_seconds / 8.0;
  double uploaded = 0.0;
  while (budget > 0.0 && !items_.empty()) {
    EdgeItem& item = items_.front();
    const double take = std::min(budget, item.remaining_bytes);
    item.remaining_bytes -= take;
    budget -= take;
    uploaded += take;
    if (item.remaining_bytes <= 0.0) {
      if (on_cloud_arrival) {
        on_cloud_arrival(now.seconds_since(item.capture), item);
      }
      items_.pop_front();
    }
  }
  queued_bytes_ -= uploaded;
  if (queued_bytes_ < 0.0) queued_bytes_ = 0.0;
  return uploaded;
}

}  // namespace dgs::backend
