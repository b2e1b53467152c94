#include "src/core/simulator.h"

#include "src/core/session.h"
#include "src/util/check.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dgs::core {

namespace {

/// Builds the structured error for one violated constraint.
std::optional<OptionsError> err(std::string field, std::string message) {
  return OptionsError{std::move(field), std::move(message)};
}

std::string num(double v) {
  std::ostringstream s;
  s << v;
  return s.str();
}

/// Shared checks for a scheduled fault window (station outages and
/// backhaul degradations alike).
std::optional<OptionsError> check_window(const std::string& field,
                                         int station_index,
                                         double start_hours,
                                         double end_hours,
                                         int num_stations) {
  if (num_stations >= 0 &&
      (station_index < 0 || station_index >= num_stations)) {
    return err(field + ".station_index",
               "station index " + num(station_index) +
                   " out of range [0, " + num(num_stations) + ")");
  }
  if (end_hours < start_hours) {
    return err(field + ".end_hours",
               "window ends (" + num(end_hours) +
                   " h) before it starts (" + num(start_hours) + " h)");
  }
  return std::nullopt;
}

bool valid_tenant_name(const std::string& name) {
  if (name.empty()) return false;
  if (!(name[0] >= 'a' && name[0] <= 'z')) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::optional<OptionsError> SimulationOptions::validate(
    int num_stations, std::span<const int> station_ids,
    int num_satellites) const {
  if (!(duration_hours > 0.0)) {
    return err("duration_hours",
               "must be > 0 (got " + num(duration_hours) + ")");
  }
  if (!(step_seconds > 0.0)) {
    return err("step_seconds",
               "must be > 0 (got " + num(step_seconds) + ")");
  }
  if (lookahead_hours < 0.0) {
    return err("lookahead_hours",
               "must be >= 0 (got " + num(lookahead_hours) + ")");
  }
  if (urgent_fraction < 0.0 || urgent_fraction > 1.0) {
    return err("urgent_fraction",
               "must be in [0, 1] (got " + num(urgent_fraction) + ")");
  }
  if (urgent_fraction > 0.0 && !(urgent_priority > 0.0)) {
    return err("urgent_priority",
               "must be > 0 (got " + num(urgent_priority) + ")");
  }
  if (initial_backlog_bytes < 0.0) {
    return err("initial_backlog_bytes",
               "must be >= 0 (got " + num(initial_backlog_bytes) + ")");
  }
  if (station_backhaul_bps < 0.0) {
    return err("station_backhaul_bps",
               "must be >= 0 (got " + num(station_backhaul_bps) + ")");
  }
  if (slew_seconds < 0.0) {
    return err("slew_seconds",
               "must be >= 0 (got " + num(slew_seconds) + ")");
  }
  if (parallel.num_threads < 0) {
    return err("parallel.num_threads",
               "must be >= 0 (got " + num(parallel.num_threads) + ")");
  }
  if (parallel.chunk_size <= 0) {
    return err("parallel.chunk_size",
               "must be > 0 (got " + num(parallel.chunk_size) + ")");
  }

  for (std::size_t i = 0; i < station_subset.size(); ++i) {
    const int id = station_subset[i];
    const std::string field =
        "station_subset[" + num(static_cast<double>(i)) + "]";
    if (id < 0) {
      return err(field, "station id must be >= 0 (got " + num(id) + ")");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (station_subset[j] == id) {
        return err(field, "duplicate station id " + num(id));
      }
    }
    if (!station_ids.empty() &&
        std::find(station_ids.begin(), station_ids.end(), id) ==
            station_ids.end()) {
      return err(field,
                 "unknown station id " + num(id) +
                     " (not in the loaded station set)");
    }
  }

  for (std::size_t i = 0; i < faults.outages.size(); ++i) {
    const faults::OutageWindow& o = faults.outages[i];
    if (auto e = check_window(
            "faults.outages[" + num(static_cast<double>(i)) + "]",
            o.station_index, o.start_hours, o.end_hours, num_stations)) {
      return e;
    }
  }

  const faults::StationChurn& churn = faults.churn;
  if (churn.mtbf_hours < 0.0) {
    return err("faults.churn.mtbf_hours",
               "must be >= 0 (got " + num(churn.mtbf_hours) + ")");
  }
  if (churn.mtbf_hours > 0.0 && !(churn.mttr_hours > 0.0)) {
    return err("faults.churn.mttr_hours",
               "must be > 0 when churn is enabled (got " +
                   num(churn.mttr_hours) + ")");
  }
  if (churn.station_fraction < 0.0 || churn.station_fraction > 1.0) {
    return err("faults.churn.station_fraction",
               "must be in [0, 1] (got " + num(churn.station_fraction) +
                   ")");
  }

  if (!faults.backhaul.empty() && !(station_backhaul_bps > 0.0)) {
    return err("faults.backhaul",
               "backhaul degradation requires station_backhaul_bps > 0 "
               "(no edge queues are modelled otherwise)");
  }
  for (std::size_t i = 0; i < faults.backhaul.size(); ++i) {
    const faults::BackhaulFault& f = faults.backhaul[i];
    const std::string field =
        "faults.backhaul[" + num(static_cast<double>(i)) + "]";
    if (auto e = check_window(field, f.station_index, f.start_hours,
                              f.end_hours, num_stations)) {
      return e;
    }
    if (f.rate_multiplier < 0.0 || f.rate_multiplier > 1.0) {
      return err(field + ".rate_multiplier",
                 "must be in [0, 1] (got " + num(f.rate_multiplier) + ")");
    }
  }

  const faults::AckRelayFaults& ack = faults.ack_relay;
  if (ack.loss_probability < 0.0 || ack.loss_probability >= 1.0) {
    return err("faults.ack_relay.loss_probability",
               "must be in [0, 1) (got " + num(ack.loss_probability) +
                   ")");
  }
  if (ack.loss_probability > 0.0) {
    if (!(ack.initial_backoff_s > 0.0)) {
      return err("faults.ack_relay.initial_backoff_s",
                 "must be > 0 (got " + num(ack.initial_backoff_s) + ")");
    }
    if (ack.backoff_multiplier < 1.0) {
      return err("faults.ack_relay.backoff_multiplier",
                 "must be >= 1 (got " + num(ack.backoff_multiplier) + ")");
    }
    if (ack.max_backoff_s < ack.initial_backoff_s) {
      return err("faults.ack_relay.max_backoff_s",
                 "must be >= initial_backoff_s (got " +
                     num(ack.max_backoff_s) + ")");
    }
    if (ack.max_attempts < 1) {
      return err("faults.ack_relay.max_attempts",
                 "must be >= 1 (got " + num(ack.max_attempts) + ")");
    }
  }

  const double pu = faults.plan_upload.failure_probability;
  if (pu < 0.0 || pu >= 1.0) {
    return err("faults.plan_upload.failure_probability",
               "must be in [0, 1) (got " + num(pu) + ")");
  }

  // Priority-access bids (DESIGN.md §16): a satellite x station table.
  if (!value_scale.empty()) {
    if (lookahead_hours > 0.0) {
      return err("value_scale",
                 "bid multipliers require per-instant scheduling "
                 "(lookahead_hours must be 0)");
    }
    for (std::size_t i = 0; i < value_scale.size(); ++i) {
      const double m = value_scale[i];
      if (!(m > 0.0) || !std::isfinite(m)) {
        return err("value_scale[" + num(static_cast<double>(i)) + "]",
                   "must be finite and > 0 (got " + num(m) + ")");
      }
    }
    if (num_satellites >= 0 && num_stations >= 0 &&
        value_scale.size() != static_cast<std::size_t>(num_satellites) *
                                  static_cast<std::size_t>(num_stations)) {
      return err("value_scale",
                 "holds " + num(static_cast<double>(value_scale.size())) +
                     " multipliers; expected satellites x stations = " +
                     num(num_satellites) + " x " + num(num_stations));
    }
  }

  // Multi-tenant service mode (DESIGN.md §16).  The tenant slices must
  // partition the fleet: disjoint always; covering whenever the fleet
  // size is known.
  if (!tenants.empty()) {
    if (lookahead_hours > 0.0) {
      return err("tenants",
                 "multi-tenant arbitration requires per-instant "
                 "scheduling (lookahead_hours must be 0)");
    }
    std::vector<char> claimed(
        num_satellites >= 0 ? static_cast<std::size_t>(num_satellites) : 0,
        0);
    std::size_t total_claimed = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantSpec& t = tenants[i];
      const std::string field =
          "tenants[" + num(static_cast<double>(i)) + "]";
      if (!valid_tenant_name(t.name)) {
        return err(field + ".name",
                   "must match [a-z][a-z0-9_]* (got \"" + t.name + "\")");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (tenants[j].name == t.name) {
          return err(field + ".name",
                     "duplicate tenant name \"" + t.name + "\"");
        }
      }
      if (!(t.weight > 0.0) || !std::isfinite(t.weight)) {
        return err(field + ".weight",
                   "must be finite and > 0 (got " + num(t.weight) + ")");
      }
      if (t.sla_latency_minutes < 0.0) {
        return err(field + ".sla_latency_minutes",
                   "must be >= 0 (got " + num(t.sla_latency_minutes) +
                       ")");
      }
      if (t.satellites.empty()) {
        return err(field + ".satellites",
                   "tenant must own at least one satellite");
      }
      for (std::size_t k = 0; k < t.satellites.size(); ++k) {
        const int s = t.satellites[k];
        const std::string sat_field =
            field + ".satellites[" + num(static_cast<double>(k)) + "]";
        if (s < 0) {
          return err(sat_field,
                     "satellite index must be >= 0 (got " + num(s) + ")");
        }
        if (num_satellites >= 0) {
          if (s >= num_satellites) {
            return err(sat_field, "satellite index " + num(s) +
                                      " out of range [0, " +
                                      num(num_satellites) + ")");
          }
          if (claimed[static_cast<std::size_t>(s)] != 0) {
            return err(sat_field, "satellite " + num(s) +
                                      " already claimed by an earlier "
                                      "tenant");
          }
          claimed[static_cast<std::size_t>(s)] = 1;
        } else {
          for (std::size_t j = 0; j <= i; ++j) {
            for (std::size_t m = 0;
                 m < (j == i ? k : tenants[j].satellites.size()); ++m) {
              if (tenants[j].satellites[m] == s) {
                return err(sat_field,
                           "satellite " + num(s) +
                               " already claimed by an earlier tenant");
              }
            }
          }
        }
        total_claimed += 1;
      }
    }
    if (num_satellites >= 0 &&
        total_claimed != static_cast<std::size_t>(num_satellites)) {
      return err("tenants",
                 "tenant slices cover " +
                     num(static_cast<double>(total_claimed)) + " of " +
                     num(num_satellites) +
                     " satellites; every satellite must belong to "
                     "exactly one tenant");
    }
  }
  return std::nullopt;
}

std::vector<groundseg::GroundStation> select_stations(
    std::vector<groundseg::GroundStation> stations,
    const SimulationOptions& opts, int num_sats) {
  DGS_ENSURE(num_sats > 0 && !stations.empty(),
             "sats=" << num_sats << " stations=" << stations.size());
  std::vector<int> station_ids;
  station_ids.reserve(stations.size());
  for (const groundseg::GroundStation& gs : stations) {
    station_ids.push_back(gs.id);
  }
  if (!opts.station_subset.empty()) {
    std::vector<groundseg::GroundStation> kept;
    kept.reserve(opts.station_subset.size());
    for (groundseg::GroundStation& gs : stations) {
      if (std::find(opts.station_subset.begin(), opts.station_subset.end(),
                    gs.id) != opts.station_subset.end()) {
        kept.push_back(std::move(gs));
      }
    }
    stations = std::move(kept);
  }
  if (const auto e = opts.validate(static_cast<int>(stations.size()),
                                   station_ids, num_sats)) {
    // dgslint: allow(R4) -- renders OptionsError; format is test-pinned
    throw std::invalid_argument("SimulationOptions." + e->field + ": " +
                                e->message);
  }
  return stations;
}

Simulator::Simulator(std::vector<groundseg::SatelliteConfig> sats,
                     std::vector<groundseg::GroundStation> stations,
                     const weather::WeatherProvider* actual_weather,
                     const SimulationOptions& opts)
    : sats_(std::move(sats)), stations_(std::move(stations)),
      actual_wx_(actual_weather), opts_(opts) {
  // Session repeats the validation at construction; running it here too
  // keeps the contract that an invalid Simulator throws at construction,
  // not at run().
  select_stations(stations_, opts_, static_cast<int>(sats_.size()));
}

SimulationResult Simulator::run() {
  Session session(sats_, stations_, actual_wx_, opts_);
  return session.run_to_end();
}

}  // namespace dgs::core
