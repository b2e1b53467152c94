#include "src/obs/events.h"

#include <cstdio>
#include <ostream>

namespace dgs::obs {

namespace {

/// Round-trip-exact number rendering (compact when lossless).
void append_number(std::ostream& out, double v) {
  char compact[64];
  std::snprintf(compact, sizeof(compact), "%g", v);
  double back = 0.0;
  std::sscanf(compact, "%lf", &back);
  if (back == v) {
    out << compact;
    return;
  }
  char exact[64];
  std::snprintf(exact, sizeof(exact), "%.17g", v);
  out << exact;
}

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

std::ostream& EventLog::begin_line(const char* type) {
  char buf[96];
  // %.4f matches write_timeseries_csv's hours column exactly, so the two
  // artifacts join byte-for-byte on t_hours.
  std::snprintf(buf, sizeof(buf), "{\"t_hours\": %.4f, \"step\": %lld, "
                                  "\"type\": \"%s\"",
                t_hours_, static_cast<long long>(step_), type);
  return *out_ << buf;
}

void EventLog::contact_open(int sat, int station, std::string_view modcod,
                            double rate_bps, double elevation_deg) {
  if (!enabled()) return;
  std::ostream& out = begin_line("contact_open");
  out << ", \"sat\": " << sat << ", \"gs\": " << station << ", \"modcod\": ";
  append_string(out, modcod);
  out << ", \"rate_bps\": ";
  append_number(out, rate_bps);
  out << ", \"elevation_deg\": ";
  append_number(out, elevation_deg);
  out << "}\n";
}

void EventLog::contact_close(int sat, int station, int held_steps) {
  if (!enabled()) return;
  begin_line("contact_close")
      << ", \"sat\": " << sat << ", \"gs\": " << station
      << ", \"held_steps\": " << held_steps << "}\n";
}

void EventLog::modcod_selected(int sat, int station, std::string_view modcod,
                               double rate_bps) {
  if (!enabled()) return;
  std::ostream& out = begin_line("modcod_selected");
  out << ", \"sat\": " << sat << ", \"gs\": " << station << ", \"modcod\": ";
  append_string(out, modcod);
  out << ", \"rate_bps\": ";
  append_number(out, rate_bps);
  out << "}\n";
}

void EventLog::bytes_moved(int sat, int station, double bytes,
                           bool received) {
  if (!enabled()) return;
  std::ostream& out = begin_line("bytes_moved");
  out << ", \"sat\": " << sat << ", \"gs\": " << station << ", \"bytes\": ";
  append_number(out, bytes);
  out << ", \"received\": " << (received ? "true" : "false") << "}\n";
}

void EventLog::ack_relayed(int sat, int station, double acked_bytes,
                           double requeued_bytes, int batches) {
  if (!enabled()) return;
  std::ostream& out = begin_line("ack_relayed");
  out << ", \"sat\": " << sat << ", \"gs\": " << station
      << ", \"acked_bytes\": ";
  append_number(out, acked_bytes);
  out << ", \"requeued_bytes\": ";
  append_number(out, requeued_bytes);
  out << ", \"batches\": " << batches << "}\n";
}

void EventLog::plan_uploaded(int sat, int station, double lead_s) {
  if (!enabled()) return;
  std::ostream& out = begin_line("plan_uploaded");
  out << ", \"sat\": " << sat << ", \"gs\": " << station
      << ", \"lead_s\": ";
  append_number(out, lead_s);
  out << "}\n";
}

void EventLog::outage_begin(int station) {
  if (!enabled()) return;
  begin_line("outage_begin") << ", \"gs\": " << station << "}\n";
}

void EventLog::outage_end(int station) {
  if (!enabled()) return;
  begin_line("outage_end") << ", \"gs\": " << station << "}\n";
}

void EventLog::outage_loss(int sat, int station, double bytes) {
  if (!enabled()) return;
  std::ostream& out = begin_line("outage_loss");
  out << ", \"sat\": " << sat << ", \"gs\": " << station << ", \"bytes\": ";
  append_number(out, bytes);
  out << "}\n";
}

void EventLog::ack_relay_retry(int sat, int station, int retries,
                               double delay_s) {
  if (!enabled()) return;
  std::ostream& out = begin_line("ack_relay_retry");
  out << ", \"sat\": " << sat << ", \"gs\": " << station
      << ", \"retries\": " << retries << ", \"delay_s\": ";
  append_number(out, delay_s);
  out << "}\n";
}

void EventLog::plan_upload_failed(int sat, int station) {
  if (!enabled()) return;
  begin_line("plan_upload_failed")
      << ", \"sat\": " << sat << ", \"gs\": " << station << "}\n";
}

void EventLog::replan(int station, int window_steps) {
  if (!enabled()) return;
  begin_line("replan") << ", \"gs\": " << station
                       << ", \"window_steps\": " << window_steps << "}\n";
}

void EventLog::backhaul_fault_begin(int station, double multiplier) {
  if (!enabled()) return;
  std::ostream& out = begin_line("backhaul_fault_begin");
  out << ", \"gs\": " << station << ", \"multiplier\": ";
  append_number(out, multiplier);
  out << "}\n";
}

void EventLog::backhaul_fault_end(int station) {
  if (!enabled()) return;
  begin_line("backhaul_fault_end") << ", \"gs\": " << station << "}\n";
}

void EventLog::backhaul_step(double received_bytes, double uploaded_bytes,
                             double queued_bytes) {
  if (!enabled()) return;
  std::ostream& out = begin_line("backhaul_step");
  out << ", \"received_bytes\": ";
  append_number(out, received_bytes);
  out << ", \"uploaded_bytes\": ";
  append_number(out, uploaded_bytes);
  out << ", \"queued_bytes\": ";
  append_number(out, queued_bytes);
  out << "}\n";
}

}  // namespace dgs::obs
