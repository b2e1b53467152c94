// Station-side edge store-and-forward (paper §3.3 "Edge compute on the
// ground station").
//
// A DGS station decodes the downlink locally and uploads the result over
// its own Internet connection, which is far slower than the X-band burst
// rate.  Data therefore queues at the station; edge compute earns its keep
// by uploading latency-sensitive data first and bulk imagery at lower
// priority.  This module models that queue: strict-priority, FIFO within a
// class, drained at the station's backhaul rate.
#pragma once

#include <deque>
#include <functional>

#include "src/util/time.h"

namespace dgs::backend {

/// A decoded data block waiting at the station for upload to the cloud.
struct EdgeItem {
  util::Epoch capture;        ///< When the satellite imaged it.
  util::Epoch ground_rx;      ///< When the station received it.
  double bytes = 0.0;
  double remaining_bytes = 0.0;
  double priority = 1.0;
};

/// Checkpoint serialization (core/checkpoint.h).
template <class Ar>
void io(Ar& ar, EdgeItem& item) {
  ar.obj(item.capture);
  ar.obj(item.ground_rx);
  ar.f64(item.bytes);
  ar.f64(item.remaining_bytes);
  ar.f64(item.priority);
}

/// Fired when an item's last byte reaches the cloud:
/// (capture-to-cloud latency seconds, item).
using CloudArrivalCallback = std::function<void(double, const EdgeItem&)>;

class StationEdgeQueue {
 public:
  /// `backhaul_bps` > 0: the station's Internet uplink rate.
  explicit StationEdgeQueue(double backhaul_bps);

  /// Enqueues a decoded block received from the downlink.
  void receive(double bytes, double priority, const util::Epoch& capture,
               const util::Epoch& ground_rx);

  /// Uploads for `dt_seconds` ending at `now`; completed items fire
  /// `on_cloud_arrival`.  `rate_multiplier` scales the backhaul rate for
  /// this quantum (fault injection, DESIGN.md §11): 1 = nominal, 0 = hard
  /// blackout (data keeps queueing).  Returns bytes uploaded.
  double drain(double dt_seconds, const util::Epoch& now,
               const CloudArrivalCallback& on_cloud_arrival,
               double rate_multiplier = 1.0);

  double queued_bytes() const { return queued_bytes_; }

  /// Checkpoint serialization (core/checkpoint.h): the queue contents in
  /// service order plus the exact queued-bytes aggregate, verbatim.
  template <class Ar>
  void io(Ar& ar) {
    ar.seq(items_);
    ar.f64(queued_bytes_);
  }

 private:
  double backhaul_bps_;
  std::deque<EdgeItem> items_;   ///< Priority desc, ground_rx asc.
  double queued_bytes_ = 0.0;
};

}  // namespace dgs::backend
