#include "src/obs/events.h"

#include <cstdio>
#include <ostream>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace dgs::obs {

namespace {

using enum EventKind;

// Members several types share, so each key is spelled once.
constexpr EventField kSat{"sat", kInt};
constexpr EventField kGs{"gs", kInt};
constexpr EventField kModcod{"modcod", kString};
constexpr EventField kRateBps{"rate_bps", kNumber};
constexpr EventField kBytes{"bytes", kNumber};

constexpr EventField kContactOpen[] = {kSat, kGs, kModcod, kRateBps,
                                       {"elevation_deg", kNumber}};
constexpr EventField kContactClose[] = {kSat, kGs, {"held_steps", kInt}};
constexpr EventField kModcodSelected[] = {kSat, kGs, kModcod, kRateBps};
constexpr EventField kBytesMoved[] = {kSat, kGs, kBytes,
                                      {"received", kBool}};
constexpr EventField kAckRelayed[] = {kSat,
                                      kGs,
                                      {"acked_bytes", kNumber},
                                      {"requeued_bytes", kNumber},
                                      {"batches", kInt}};
constexpr EventField kPlanUploaded[] = {kSat, kGs, {"lead_s", kNumber}};
constexpr EventField kStationOnly[] = {kGs};
constexpr EventField kOutageLoss[] = {kSat, kGs, kBytes};
constexpr EventField kAckRelayRetry[] = {
    kSat, kGs, {"retries", kInt}, {"delay_s", kNumber}};
constexpr EventField kPair[] = {kSat, kGs};
constexpr EventField kReplan[] = {kGs, {"window_steps", kInt}};
constexpr EventField kBackhaulFaultBegin[] = {kGs, {"multiplier", kNumber}};
constexpr EventField kBackhaulStep[] = {{"received_bytes", kNumber},
                                        {"uploaded_bytes", kNumber},
                                        {"queued_bytes", kNumber}};

/// Row indices of kEvents, in table order.
enum Type : std::size_t {
  kContactOpenType,
  kContactCloseType,
  kModcodSelectedType,
  kBytesMovedType,
  kAckRelayedType,
  kPlanUploadedType,
  kOutageBeginType,
  kOutageEndType,
  kOutageLossType,
  kAckRelayRetryType,
  kPlanUploadFailedType,
  kReplanType,
  kBackhaulFaultBeginType,
  kBackhaulFaultEndType,
  kBackhaulStepType,
};

constexpr EventSchema kEvents[] = {
    {"contact_open", kContactOpen},
    {"contact_close", kContactClose},
    {"modcod_selected", kModcodSelected},
    {"bytes_moved", kBytesMoved},
    {"ack_relayed", kAckRelayed},
    {"plan_uploaded", kPlanUploaded},
    {"outage_begin", kStationOnly},
    {"outage_end", kStationOnly},
    {"outage_loss", kOutageLoss},
    {"ack_relay_retry", kAckRelayRetry},
    {"plan_upload_failed", kPair},
    {"replan", kReplan},
    {"backhaul_fault_begin", kBackhaulFaultBegin},
    {"backhaul_fault_end", kStationOnly},
    {"backhaul_step", kBackhaulStep},
};
static_assert(std::size(kEvents) == kBackhaulStepType + 1);

/// MODCOD names are plain ASCII, but escape the JSON specials anyway.
void append_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::span<const EventSchema> event_schemas() { return kEvents; }

void EventLog::write(std::size_t type, std::initializer_list<Value> values) {
  const EventSchema& row = kEvents[type];
  DGS_DCHECK(values.size() == row.fields.size(), row.type);
  char hours[64];
  std::snprintf(hours, sizeof(hours), kStepHoursFormat, t_hours_);
  std::ostream& out = *out_;
  out << "{\"t_hours\": " << hours << ", \"step\": " << step_
      << ", \"type\": \"" << row.type << '"';
  const Value* v = values.begin();
  for (const EventField& field : row.fields) {
    DGS_DCHECK(v->kind == field.kind, row.type << "." << field.key);
    out << ", \"" << field.key << "\": ";
    switch (field.kind) {
      case kInt: out << v->integer; break;
      case kNumber: out << round_trip_number(v->number); break;
      case kString: append_string(out, v->text); break;
      case kBool: out << (v->flag ? "true" : "false"); break;
    }
    ++v;
  }
  out << "}\n";
}

void EventLog::contact_open(int sat, int station, std::string_view modcod,
                            double rate_bps, double elevation_deg) {
  if (!enabled()) return;
  write(kContactOpenType, {sat, station, modcod, rate_bps, elevation_deg});
}

void EventLog::contact_close(int sat, int station, int held_steps) {
  if (!enabled()) return;
  write(kContactCloseType, {sat, station, held_steps});
}

void EventLog::modcod_selected(int sat, int station, std::string_view modcod,
                               double rate_bps) {
  if (!enabled()) return;
  write(kModcodSelectedType, {sat, station, modcod, rate_bps});
}

void EventLog::bytes_moved(int sat, int station, double bytes,
                           bool received) {
  if (!enabled()) return;
  write(kBytesMovedType, {sat, station, bytes, received});
}

void EventLog::ack_relayed(int sat, int station, double acked_bytes,
                           double requeued_bytes, int batches) {
  if (!enabled()) return;
  write(kAckRelayedType,
        {sat, station, acked_bytes, requeued_bytes, batches});
}

void EventLog::plan_uploaded(int sat, int station, double lead_s) {
  if (!enabled()) return;
  write(kPlanUploadedType, {sat, station, lead_s});
}

void EventLog::outage_begin(int station) {
  if (!enabled()) return;
  write(kOutageBeginType, {station});
}

void EventLog::outage_end(int station) {
  if (!enabled()) return;
  write(kOutageEndType, {station});
}

void EventLog::outage_loss(int sat, int station, double bytes) {
  if (!enabled()) return;
  write(kOutageLossType, {sat, station, bytes});
}

void EventLog::ack_relay_retry(int sat, int station, int retries,
                               double delay_s) {
  if (!enabled()) return;
  write(kAckRelayRetryType, {sat, station, retries, delay_s});
}

void EventLog::plan_upload_failed(int sat, int station) {
  if (!enabled()) return;
  write(kPlanUploadFailedType, {sat, station});
}

void EventLog::replan(int station, int window_steps) {
  if (!enabled()) return;
  write(kReplanType, {station, window_steps});
}

void EventLog::backhaul_fault_begin(int station, double multiplier) {
  if (!enabled()) return;
  write(kBackhaulFaultBeginType, {station, multiplier});
}

void EventLog::backhaul_fault_end(int station) {
  if (!enabled()) return;
  write(kBackhaulFaultEndType, {station});
}

void EventLog::backhaul_step(double received_bytes, double uploaded_bytes,
                             double queued_bytes) {
  if (!enabled()) return;
  write(kBackhaulStepType, {received_bytes, uploaded_bytes, queued_bytes});
}

}  // namespace dgs::obs
