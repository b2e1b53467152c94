// Satellite on-board data store with ack-free downlink semantics (paper
// §3.3): data that has been transmitted to a receive-only station cannot be
// discarded until an acknowledgement arrives via a transmit-capable contact,
// so the store tracks two populations — queued (not yet sent) and
// pending-ack (sent, still occupying storage).
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "src/util/time.h"

namespace dgs::core {

/// A contiguous block of captured imagery awaiting downlink.
struct DataChunk {
  util::Epoch capture;
  double total_bytes = 0.0;
  double remaining_bytes = 0.0;
  /// Operator-assigned priority (paper §3.1: Phi can "prioritize data based
  /// on geography, e.g. to honor SLAs"; §3.3: latency-sensitive tiers for
  /// disaster imagery).  1.0 = bulk imagery; higher = more urgent.  The
  /// queue serves strictly by (priority desc, capture asc).
  double priority = 1.0;
};

/// Checkpoint serialization (core/checkpoint.h).
template <class Ar>
void io(Ar& ar, DataChunk& c) {
  ar.obj(c.capture);
  ar.f64(c.total_bytes);
  ar.f64(c.remaining_bytes);
  ar.f64(c.priority);
}

/// Invoked once per chunk when its last byte reaches the ground:
/// (capture-to-reception latency in seconds, the delivered chunk).
using DeliveryCallback = std::function<void(double, const DataChunk&)>;
/// Invoked per acknowledged transmission batch:
/// (transmit-to-ack delay in seconds, bytes acknowledged).
using AckCallback = std::function<void(double, double)>;

class OnboardQueue {
 public:
  /// Caps total on-board storage (queued + pending-ack); data captured
  /// while full is dropped at the sensor (tail drop) and counted in
  /// dropped_bytes().  Paper §3.3: because acks arrive late, DGS does not
  /// reduce the storage requirement — this models what happens when the
  /// recorder actually fills.  Default: unlimited.
  void set_capacity(double bytes);

  /// Adds newly captured data at `priority` (>= 0).  The queue keeps
  /// chunks sorted by (priority desc, capture asc), so urgent data jumps
  /// ahead of the bulk backlog.  Bytes beyond the storage capacity are
  /// dropped.  No-op for zero bytes; throws std::invalid_argument for
  /// negative sizes or priority.
  void generate(double bytes, const util::Epoch& capture,
                double priority = 1.0);

  /// Transmits up to `budget_bytes` in queue order (priority desc, oldest
  /// first) at time `now`.  `received` says whether the ground actually
  /// captured the transmission (the satellite cannot tell — receive-only
  /// stations give no feedback):
  ///   * received == true: completed chunks fire `on_delivered`, and the
  ///     bytes await a positive ack.
  ///   * received == false (mis-predicted MODCOD, §3.2): the bytes still
  ///     leave the queue and occupy storage, but at the next
  ///     transmit-capable contact the collated report marks them missing
  ///     and they are re-queued with their original capture times —
  ///     the paper's "missing pieces" loop (§3).
  /// `report_delay_s` >= 0 delays when the station's report about this
  /// batch reaches the operator (ack-relay Internet faults, DESIGN.md
  /// §11): acknowledge_all ignores the batch until `now + report_delay_s`.
  /// Returns bytes actually sent (min of budget and queue).
  double transmit(double budget_bytes, const util::Epoch& now,
                  const DeliveryCallback& on_delivered, bool received = true,
                  double report_delay_s = 0.0);

  /// Processes the collated report at a transmit-capable contact: batches
  /// the ground received are freed (firing `on_ack` per batch); batches it
  /// missed are re-queued for retransmission.  Batches whose report is
  /// still in flight (report_delay_s on transmit) stay pending for a
  /// later contact.  Returns re-queued bytes.
  double acknowledge_all(const util::Epoch& now, const AckCallback& on_ack);

  double queued_bytes() const { return queued_bytes_; }
  double pending_ack_bytes() const { return pending_bytes_; }
  /// Total storage the satellite cannot reclaim yet.
  double storage_bytes() const { return queued_bytes_ + pending_bytes_; }
  /// Bytes lost at the sensor because storage was full.
  double dropped_bytes() const { return dropped_bytes_; }
  /// Lifetime bytes the sensor attempted to capture (accepted + dropped).
  double offered_bytes() const { return offered_bytes_; }
  /// Lifetime bytes freed by a positive acknowledgement.
  double acked_bytes() const { return acked_bytes_; }

  /// Conservation audit over the queue's whole history: every offered byte
  /// must be exactly one of dropped, still queued, awaiting ack, or freed
  /// by an ack — nothing silently created or destroyed.  Returns an empty
  /// string when the books balance (within float tolerance), else a
  /// description of the imbalance.  The simulator runs this per step under
  /// DGS_DCHECK.
  std::string audit_conservation() const;

  /// Capture time of the chunk at the head of the service order; only
  /// valid when queued_bytes() > 0.
  const util::Epoch& oldest_capture() const { return chunks_.front().capture; }

  /// Read access for value functions, in service order (priority desc,
  /// then oldest first).
  const std::deque<DataChunk>& chunks() const { return chunks_; }

  /// One in-flight transmission batch (public for checkpoint I/O; the
  /// service semantics live entirely in transmit/acknowledge_all).
  struct PendingBatch {
    util::Epoch sent;
    util::Epoch report_ready;        ///< Report available from here on.
    double bytes = 0.0;
    bool received = true;            ///< Ground captured the transmission.
    std::deque<DataChunk> pieces;    ///< For re-queue when !received.

    template <class Ar>
    friend void io(Ar& ar, PendingBatch& b) {
      ar.obj(b.sent);
      ar.obj(b.report_ready);
      ar.f64(b.bytes);
      ar.b(b.received);
      ar.seq(b.pieces);
    }
  };

  /// Checkpoint serialization (core/checkpoint.h).  The aggregates travel
  /// verbatim rather than being recomputed, so a resumed run's
  /// floating-point books are bit-identical to an uninterrupted one.
  template <class Ar>
  void io(Ar& ar) {
    ar.seq(chunks_);
    ar.seq(pending_);
    ar.f64(queued_bytes_);
    ar.f64(pending_bytes_);
    ar.f64(dropped_bytes_);
    ar.f64(offered_bytes_);
    ar.f64(acked_bytes_);
  }

 private:
  void insert_sorted(DataChunk chunk);

  std::deque<DataChunk> chunks_;
  std::deque<PendingBatch> pending_;
  double queued_bytes_ = 0.0;
  double pending_bytes_ = 0.0;
  double capacity_bytes_ = 0.0;  ///< 0 == unlimited.
  double dropped_bytes_ = 0.0;
  double offered_bytes_ = 0.0;  ///< Lifetime capture attempts.
  double acked_bytes_ = 0.0;    ///< Lifetime positively-acked bytes.
};

}  // namespace dgs::core
