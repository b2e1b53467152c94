#include "src/core/simulator.h"

#include "src/util/check.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <set>
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

/// The most steps a horizon may span: about 1,900 years of 60 s steps,
/// far inside int64 and any sane allocation.
constexpr double kMaxSteps = 1e9;

/// The bound `x` breaks, as text, or nullptr.
const char* broken(double x, Bound b) {
  switch (b) {
    case Bound::kAny: return nullptr;
    case Bound::kPositive: return x > 0.0 ? nullptr : "> 0";
    case Bound::kNonNegative: return x < 0.0 ? ">= 0" : nullptr;
    case Bound::kUnit: return x < 0.0 || x > 1.0 ? "in [0, 1]" : nullptr;
    case Bound::kUnitOpen: return x < 0.0 || x >= 1.0 ? "in [0, 1)" : nullptr;
    case Bound::kAtLeastOne: return x < 1.0 ? ">= 1" : nullptr;
    case Bound::kFinitePositive:
      return x > 0.0 && std::isfinite(x) ? nullptr : "finite and > 0";
  }
  return nullptr;
}

/// walk_options visitor: keeps the first number outside its Bound, or
/// the first non-finite real.  Only that field's name is ever built.
class BoundChecker {
 public:
  std::optional<OptionsError> error;

  void epoch(const char*, const util::Epoch&) {}
  template <class T>
  void choice(const char*, T) {}
  void seed(const char*, std::uint64_t) {}
  void text(const char*, const std::string&) {}

  void real(const char* name, double x, Bound b, bool checked = true) {
    if (error || !checked) return;
    if (const char* bound = broken(x, b)) {
      fail(name, std::string("must be ") + bound + " (got " + num(x) + ")");
    } else if (!std::isfinite(x)) {
      fail(name, "must be finite (got " + num(x) + ")");
    }
  }
  void integer(const char* name, int x, Bound b, bool checked = true) {
    real(name, x, b, checked);
  }
  template <class C, class F>
  void list(const char* name, C& items, F f) {
    DGS_DCHECK(depth_ < static_cast<int>(path_.size()), name);
    for (std::size_t i = 0; i < items.size() && !error; ++i) {
      path_[static_cast<std::size_t>(depth_++)] = {name, i};
      f(items[i]);
      --depth_;
    }
  }

 private:
  /// "tenants[1].satellites[0]" from the open lists and the leaf name.
  void fail(const char* leaf, std::string message) {
    std::string field;
    for (int d = 0; d < depth_; ++d) {
      const auto& [list, index] = path_[static_cast<std::size_t>(d)];
      if (d > 0) field += '.';
      field += std::string(list) + "[" + std::to_string(index) + "]";
    }
    if (*leaf != '\0') field += (field.empty() ? "" : ".") + std::string(leaf);
    error = OptionsError{std::move(field), std::move(message)};
  }

  std::array<std::pair<const char*, std::size_t>, 2> path_{};
  int depth_ = 0;
};

// The checks that span fields, each run after every number passed its
// Bound.

/// The horizon must hold at least one step, and few enough to count.
std::optional<OptionsError> check_horizon(const SimulationOptions& o) {
  const double steps = std::round(o.duration_hours * 3600.0 / o.step_seconds);
  if (steps >= 1.0 && steps <= kMaxSteps) return std::nullopt;
  return err("duration_hours",
             "must span 1 to " + num(kMaxSteps) + " steps of " +
                 num(o.step_seconds) + " s (got " + num(o.duration_hours) +
                 " h, " + num(steps) + " steps)");
}

/// Not hashed: any thread count gives the same result.
std::optional<OptionsError> check_parallel(const SimulationOptions& o) {
  BoundChecker c;
  c.integer("parallel.num_threads", o.parallel.num_threads,
            Bound::kNonNegative);
  c.integer("parallel.chunk_size", o.parallel.chunk_size, Bound::kPositive);
  if (!c.error && o.parallel.num_threads > util::kMaxThreads) {
    return err("parallel.num_threads",
               "must be <= " + num(util::kMaxThreads) + " (got " +
                   num(o.parallel.num_threads) + ")");
  }
  return c.error;
}

/// Scheduled fault windows (station outages and backhaul degradations
/// alike): each on a station that exists, ending no earlier than it
/// starts.
template <class W>
std::optional<OptionsError> check_windows(const std::string& list,
                                          const std::vector<W>& windows,
                                          int num_stations) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const W& w = windows[i];
    const std::string field = list + "[" + std::to_string(i) + "]";
    if (num_stations >= 0 &&
        (w.station_index < 0 || w.station_index >= num_stations)) {
      return err(field + ".station_index",
                 "station index " + num(w.station_index) +
                     " out of range [0, " + num(num_stations) + ")");
    }
    if (w.end_hours < w.start_hours) {
      return err(field + ".end_hours",
                 "window ends (" + num(w.end_hours) +
                     " h) before it starts (" + num(w.start_hours) + " h)");
    }
  }
  return std::nullopt;
}

std::optional<OptionsError> check_backhaul_model(const SimulationOptions& o) {
  if (o.faults.backhaul.empty() || o.station_backhaul_bps > 0.0) {
    return std::nullopt;
  }
  return err("faults.backhaul",
             "backhaul degradation requires station_backhaul_bps > 0 "
             "(no edge queues are modelled otherwise)");
}

std::optional<OptionsError> check_churn(const faults::StationChurn& c) {
  if (!(c.mtbf_hours > 0.0) || c.mttr_hours > 0.0) return std::nullopt;
  return err("faults.churn.mttr_hours",
             "must be > 0 when churn is enabled (got " + num(c.mttr_hours) +
                 ")");
}

std::optional<OptionsError> check_backoff(const faults::AckRelayFaults& a) {
  if (!(a.loss_probability > 0.0) || a.max_backoff_s >= a.initial_backoff_s) {
    return std::nullopt;
  }
  return err("faults.ack_relay.max_backoff_s",
             "must be >= initial_backoff_s (got " + num(a.max_backoff_s) +
                 ")");
}

/// Unique non-negative ids, each naming a loaded station when the ids
/// are known.
std::optional<OptionsError> check_station_subset(
    const std::vector<int>& subset, std::span<const int> station_ids) {
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const int id = subset[i];
    const std::string field = "station_subset[" + std::to_string(i) + "]";
    if (id < 0) {
      return err(field, "station id must be >= 0 (got " + num(id) + ")");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (subset[j] == id) {
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
  return std::nullopt;
}

/// Priority-access bids (DESIGN.md §16): a satellites x stations table,
/// for per-instant scheduling only.
std::optional<OptionsError> check_value_scale(const SimulationOptions& o,
                                              int num_satellites,
                                              int num_stations) {
  if (o.value_scale.empty()) return std::nullopt;
  if (o.lookahead_hours > 0.0) {
    return err("value_scale",
               "bid multipliers require per-instant scheduling "
               "(lookahead_hours must be 0)");
  }
  if (num_satellites >= 0 && num_stations >= 0 &&
      o.value_scale.size() != static_cast<std::size_t>(num_satellites) *
                                  static_cast<std::size_t>(num_stations)) {
    return err("value_scale",
               "holds " + num(static_cast<double>(o.value_scale.size())) +
                   " multipliers; expected satellites x stations = " +
                   num(num_satellites) + " x " + num(num_stations));
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

/// Multi-tenant service mode (DESIGN.md §16), per-instant scheduling
/// only: named tenants whose satellite slices partition the fleet —
/// disjoint always, covering whenever the fleet size is known.
std::optional<OptionsError> check_tenants(const SimulationOptions& o,
                                          int num_satellites) {
  const std::vector<TenantSpec>& tenants = o.tenants;
  if (tenants.empty()) return std::nullopt;
  if (o.lookahead_hours > 0.0) {
    return err("tenants",
               "multi-tenant arbitration requires per-instant "
               "scheduling (lookahead_hours must be 0)");
  }
  std::set<int> claimed;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& t = tenants[i];
    const std::string field = "tenants[" + std::to_string(i) + "]";
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
    if (t.satellites.empty()) {
      return err(field + ".satellites",
                 "tenant must own at least one satellite");
    }
    for (std::size_t k = 0; k < t.satellites.size(); ++k) {
      const int s = t.satellites[k];
      const std::string sat_field =
          field + ".satellites[" + std::to_string(k) + "]";
      if (s < 0) {
        return err(sat_field,
                   "satellite index must be >= 0 (got " + num(s) + ")");
      }
      if (num_satellites >= 0 && s >= num_satellites) {
        return err(sat_field, "satellite index " + num(s) +
                                  " out of range [0, " +
                                  num(num_satellites) + ")");
      }
      if (!claimed.insert(s).second) {
        return err(sat_field, "satellite " + num(s) +
                                  " already claimed by an earlier tenant");
      }
    }
  }
  if (num_satellites >= 0 &&
      claimed.size() != static_cast<std::size_t>(num_satellites)) {
    return err("tenants",
               "tenant slices cover " +
                   num(static_cast<double>(claimed.size())) + " of " +
                   num(num_satellites) +
                   " satellites; every satellite must belong to "
                   "exactly one tenant");
  }
  return std::nullopt;
}

}  // namespace

std::optional<OptionsError> SimulationOptions::validate(
    int num_stations, std::span<const int> station_ids,
    int num_satellites) const {
  BoundChecker bounds;
  walk_options(bounds, *this);
  std::optional<OptionsError> e = std::move(bounds.error);
  if (!e) e = check_horizon(*this);
  if (!e) e = check_parallel(*this);
  if (!e) e = check_station_subset(station_subset, station_ids);
  if (!e) e = check_windows("faults.outages", faults.outages, num_stations);
  if (!e) e = check_windows("faults.backhaul", faults.backhaul, num_stations);
  if (!e) e = check_backhaul_model(*this);
  if (!e) e = check_churn(faults.churn);
  if (!e) e = check_backoff(faults.ack_relay);
  if (!e) e = check_value_scale(*this, num_satellites, num_stations);
  if (!e) e = check_tenants(*this, num_satellites);
  return e;
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

}  // namespace dgs::core
