// DGS end-to-end benchmark (see README.md next to this file).
//
//   dgs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--inject corrupt-digest|break-roundtrip]
//
// Generates one workload's inputs from the seed (network, weather and fault
// seeds are derived from it; the library only ever sees the generated
// inputs), drives the public core::Session API on them, checks the
// simulated outputs, and prints every metric by name with its unit.  The
// last stdout line is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 is the timed run: a closed stepping loop with tracing off that
// reports the end-to-end metrics.  --trace 1 is the traced run: a 1-lane
// pass with the library's compiled-in spans on, a metrics registry and a
// recording weather provider attached, followed by replays of single-layer
// public calls from this file; it reports the per-layer metrics.  Every
// time is host time; simulated quantities say so in their names.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/lookahead.h"
#include "src/core/report.h"
#include "src/core/run_artifact.h"
#include "src/core/session.h"
#include "src/core/visibility.h"
#include "src/faults/fault_plan.h"
#include "src/faults/profiles.h"
#include "src/groundseg/network_gen.h"
#include "src/link/budget.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/orbit/sgp4_batch.h"
#include "src/util/crc32.h"
#include "src/weather/synthetic.h"

namespace {

using namespace dgs;
using Clock = std::chrono::steady_clock;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr double kStepSeconds = 60.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Same origin as the library's trace timestamps (steady clock, ns).
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  int num_sats;
  double horizon_hours;    ///< One session's simulated horizon.
  double lookahead_hours;  ///< 0 = per-instant matching.
  const char* fault_profile;
  double backhaul_bps;     ///< Station backhaul; 0 = infinite.
  bool weather;            ///< Synthetic weather (else clear sky, blind).
  bool service;            ///< Tenants + hourly checkpoint and scrape.
  int check_steps;         ///< Steps of the digest / traced pass.
  double tail_pct;         ///< Percentile reported as step_ms_p99.
  int passes;              ///< Timed passes over the same steps.
  double steps_per_s;      ///< Nominal step rate: sizes the timed passes.
  int probe_every;         ///< Steps between side probes in the timed loop.
};

constexpr WorkloadSpec kWorkloads[] = {
    {"day-instant", 259, 6.0, 0.0, "none", 0.0, true, false, 240, 90.0, 6, 324,
     40},
    {"day-lookahead-storm", 259, 2.0, 1.0, "storm", 50e6, true, false, 120,
     95.0, 4, 144, 40},
    {"serve-tenants", 259, 6.0, 0.0, "churn", 50e6, true, true, 360, 90.0,
     6, 324, 40},
    {"scale-10k-clearsky", 10000, 3.0, 0.0, "none", 0.0, false, false, 60,
     90.0, 4, 40, 60},
};

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// splitmix64: independent sub-seeds (network, weather, faults) from the
/// one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Inputs {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  std::uint64_t weather_seed = 0;
  core::SimulationOptions opts;  ///< Lanes and metrics sink set per pass.
  std::int64_t steps_per_session = 0;
  int check_steps = 0;
};

/// The inputs of one session.  A run steps through a sequence of
/// sessions, each with its own network, weather and fault realization
/// derived from (workload seed, session index), so one run averages over
/// several realizations instead of resting on one.
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, int session,
                   bool tiny) {
  const std::uint64_t base =
      derive_seed(seed, 1000 + static_cast<std::uint64_t>(session));
  Inputs in;
  groundseg::NetworkOptions net;
  net.num_satellites = w.num_sats;
  net.seed = derive_seed(base, 1);
  in.sats = groundseg::generate_constellation(net, kEpoch);
  in.stations = groundseg::generate_dgs_stations(net);
  in.weather_seed = derive_seed(base, 2);

  core::SimulationOptions& o = in.opts;
  o.start = kEpoch;
  // Tiny runs (self-tests) keep one planning window or checkpoint hour.
  o.duration_hours =
      tiny ? (w.lookahead_hours > 0.0 || w.service ? 1.0 : 0.25)
           : w.horizon_hours;
  o.step_seconds = kStepSeconds;
  o.weather_aware = w.weather;
  o.lookahead_hours = w.lookahead_hours;
  o.station_backhaul_bps = w.backhaul_bps;
  o.faults = faults::make_profile(w.fault_profile, derive_seed(base, 3),
                                  static_cast<int>(in.stations.size()));
  if (w.service) {
    // Three tenants, weights 1:2:4, contiguous fleet slices (remainder to
    // the last), as dgs_serve partitions the fleet.
    const char* names[] = {"bronze", "silver", "gold"};
    const double weights[] = {1.0, 2.0, 4.0};
    const int n = static_cast<int>(in.sats.size());
    int next = 0;
    for (int t = 0; t < 3; ++t) {
      core::TenantSpec spec;
      spec.name = names[t];
      spec.weight = weights[t];
      const int count = t == 2 ? n - next : n / 3;
      for (int k = 0; k < count; ++k) spec.satellites.push_back(next++);
      o.tenants.push_back(std::move(spec));
    }
  }
  in.steps_per_session = std::llround(o.duration_hours * 3600.0 / kStepSeconds);
  in.check_steps = static_cast<int>(std::min<std::int64_t>(
      tiny ? 10 : w.check_steps, in.steps_per_session));
  return in;
}

void print_header(const WorkloadSpec& w, std::uint64_t seed,
                  const Inputs& in) {
  std::printf("workload %s seed %llu: %zu sats x %zu stations, %g h "
              "sessions, 1 lane\n",
              w.name, static_cast<unsigned long long>(seed), in.sats.size(),
              in.stations.size(), in.opts.duration_hours);
}

// --- Sessions ----------------------------------------------------------------

/// Pass-through weather provider that records every call's host time.
/// Used by the 1-lane traced pass only, so calls arrive on one thread.
class RecordingWeather final : public weather::WeatherProvider {
 public:
  struct Call {
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  explicit RecordingWeather(const weather::WeatherProvider* inner)
      : inner_(inner) {}

  weather::WeatherSample actual(double lat, double lon,
                                const util::Epoch& when) const override {
    const std::int64_t t0 = now_ns();
    const weather::WeatherSample s = inner_->actual(lat, lon, when);
    calls_.push_back({t0, now_ns() - t0});
    return s;
  }
  weather::WeatherSample forecast(double lat, double lon,
                                  const util::Epoch& when,
                                  double lead_seconds) const override {
    const std::int64_t t0 = now_ns();
    const weather::WeatherSample s =
        inner_->forecast(lat, lon, when, lead_seconds);
    calls_.push_back({t0, now_ns() - t0});
    return s;
  }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  const weather::WeatherProvider* inner_;
  mutable std::vector<Call> calls_;
};

/// One runnable session with everything it borrows.
struct Instance {
  std::unique_ptr<weather::SyntheticWeatherProvider> wx;
  std::unique_ptr<RecordingWeather> recorder;
  std::unique_ptr<obs::Registry> registry;
  core::SimulationOptions opts;
  std::unique_ptr<core::Session> session;
  double setup_s = 0.0;  ///< Weather provider + Session construction.

  const weather::WeatherProvider* provider() const {
    if (recorder) return recorder.get();
    return wx.get();
  }
};

Instance build(const Inputs& in, int lanes, bool with_registry,
               bool record_weather) {
  Instance x;
  x.opts = in.opts;
  x.opts.parallel.num_threads = lanes;
  if (with_registry) {
    x.registry = std::make_unique<obs::Registry>();
    x.opts.metrics = x.registry.get();
  }
  const Clock::time_point t0 = Clock::now();
  if (in.opts.weather_aware) {
    x.wx = std::make_unique<weather::SyntheticWeatherProvider>(
        in.weather_seed, in.opts.start, in.opts.duration_hours + 1.0);
  }
  if (record_weather && x.wx) {
    x.recorder = std::make_unique<RecordingWeather>(x.wx.get());
  }
  x.session = std::make_unique<core::Session>(in.sats, in.stations,
                                              x.provider(), x.opts);
  x.setup_s = seconds_since(t0);
  return x;
}

std::string summary_json(const core::Session& s) {
  std::ostringstream out;
  core::write_summary_json(out, s.report());
  return out.str();
}

std::uint32_t crc_of(std::string_view bytes) {
  return util::crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                      bytes.size()});
}

/// Byte conservation over the whole fleet: every generated byte is
/// delivered, still queued, dropped at a full recorder, or sent into a
/// failed slot and not yet re-queued.  (Bytes awaiting an ack are part of
/// `delivered` or of the failed-slot term, so they are not added again.)
bool conserved(const core::SimulationResult& r) {
  double backlog = 0.0;
  for (const core::SatelliteOutcome& o : r.per_satellite) {
    backlog += o.backlog_bytes;
  }
  const double accounted = r.total_delivered_bytes + backlog +
                           r.total_dropped_bytes +
                           r.wasted_transmission_bytes - r.requeued_bytes;
  const double tol = 1e-6 * std::max(1.0, r.total_generated_bytes);
  return std::abs(r.total_generated_bytes - accounted) <= tol;
}

enum class Inject { kNone, kCorruptDigest, kBreakRoundTrip };

/// Operation ledger: one step, checkpoint round trip, scrape or output
/// check each.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// snapshot -> restore replacing the session -> snapshot again, which
/// must reproduce the first snapshot byte for byte.  A restore that throws
/// leaves the original session in place.
struct RoundTrip {
  double snapshot_ms = 0.0;
  double restore_ms = 0.0;
  std::string bytes;
  bool ok = false;
};

RoundTrip round_trip(Instance& x, const Inputs& in, Inject inject) {
  RoundTrip rt;
  std::ostringstream snap;
  Clock::time_point t0 = Clock::now();
  x.session->snapshot(snap);
  rt.snapshot_ms = seconds_since(t0) * 1e3;
  rt.bytes = std::move(snap).str();
  std::string restore_from = rt.bytes;
  if (inject == Inject::kBreakRoundTrip && !restore_from.empty()) {
    restore_from[restore_from.size() / 2] ^= 0x5a;
  }
  std::istringstream src(restore_from);
  t0 = Clock::now();
  std::unique_ptr<core::Session> restored;
  try {
    restored = core::Session::restore(src, in.sats, in.stations, x.provider(),
                                      x.opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "restore failed: %s\n", e.what());
    return rt;
  }
  rt.restore_ms = seconds_since(t0) * 1e3;
  std::ostringstream again;
  restored->snapshot(again);
  rt.ok = std::move(again).str() == rt.bytes;
  x.session = std::move(restored);
  return rt;
}

/// One scrape as a service front end serves it: report(), the summary
/// JSON and the Prometheus exposition.  `ok` is the summary's validity.
double scrape_ms(const Instance& x, bool* ok) {
  const Clock::time_point t0 = Clock::now();
  const core::SimulationResult r = x.session->report();
  std::ostringstream summary;
  core::write_summary_json(summary, r);
  std::ostringstream prom;
  if (x.registry) x.registry->write_prometheus(prom);
  const double ms = seconds_since(t0) * 1e3;
  *ok = !core::validate_summary_json(summary.str()).has_value();
  return ms;
}

// --- Statistics and output ---------------------------------------------------

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("failed_frac = %s failed/attempted (%lld of %lld operations)\n",
              number(ratio(static_cast<double>(tally.failed),
                           static_cast<double>(tally.attempted)))
                  .c_str(),
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// --- Timed run (--trace 0) ---------------------------------------------------

// The timed loop replays the same steps and probes in several passes.  On
// a shared host each CPU alternates between fast and slow phases lasting
// from a fraction of a second to tens of seconds (compute-bound code ran up
// to ~1.6x slower in a slow phase on the host this was written on).  The
// same step replayed in passes seconds apart, each pass on its own CPU, is
// fast in at least one of them unless every CPU stays slow for the whole
// run, so every step and probe is taken at its best pass, and the reported
// figures are medians, percentiles or sums over those bests.  Workloads of
// uniform steps take more passes, so that few steps are slow in all of them
// and the tail percentile stays the program's; the look-ahead workload,
// whose cost varies most between realizations, takes fewer passes of more
// sessions.

/// Host times of one pass.  Every pass replays the steps and probes of the
/// first in the same order, so entry i of a vector is the same work in
/// every pass.
struct PassLog {
  std::vector<double> step_ms;
  std::vector<double> work_s;  ///< Each step plus the service ops after it.
  std::vector<double> setup_s;
  std::vector<double> checkpoint_ms;
  std::vector<double> restore_ms;
  std::vector<double> scrape_ms;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread (and the threads it starts from now on) to
/// `cpus`.  Best effort: a host that refuses keeps the current mask.
void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Entry-wise minimum over the passes, for the entries every pass has.
std::vector<double> best_of(const std::vector<PassLog>& passes,
                            std::vector<double> PassLog::*field) {
  std::size_t n = (passes.front().*field).size();
  for (const PassLog& p : passes) n = std::min(n, (p.*field).size());
  std::vector<double> best((passes.front().*field).begin(),
                           (passes.front().*field).begin() +
                               static_cast<std::ptrdiff_t>(n));
  for (const PassLog& p : passes) {
    for (std::size_t i = 0; i < n; ++i) {
      best[i] = std::min(best[i], (p.*field)[i]);
    }
  }
  return best;
}

std::vector<Metric> timed_run(const WorkloadSpec& w, std::uint64_t seed,
                              bool tiny, double seconds, Inject inject,
                              Tally* tally) {
  const bool registry = w.service;
  std::deque<Inputs> inputs;  // One per session; references stay valid.
  inputs.push_back(make_inputs(w, seed, 0, tiny));
  const Inputs& first = inputs.front();
  print_header(w, seed, first);
  const std::int64_t steps_per_hour =
      std::llround(3600.0 / first.opts.step_seconds);
  // A fixed, whole number of sessions per pass, from the workload's
  // nominal step rate and the pass's share of the run's seconds, so that a
  // seed always measures the same work.
  const std::int64_t pass_steps =
      first.steps_per_session *
      std::max<std::int64_t>(
          1, std::llround(seconds / w.passes * w.steps_per_s /
                          static_cast<double>(first.steps_per_session)));

  // Reference pass: the traced 1-lane run of the first session's inputs.
  // Every pass of the timed loop must reach the identical summary at the
  // check step (tracing must not perturb the simulation; on the service
  // workload, the restore contract too).  Its state at the check step is
  // also the fixed state the checkpoint and scrape probes work on.
  obs::set_trace_enabled(true);
  Instance ref = build(first, 1, true, false);
  bool ref_ok = true;
  try {
    for (int k = 0; k < first.check_steps; ++k) ref.session->step();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reference pass failed: %s\n", e.what());
    ref_ok = false;
  }
  obs::set_trace_enabled(false);
  obs::clear_trace();
  tally->op(ref_ok);
  const std::uint32_t ref_digest = crc_of(summary_json(*ref.session));

  const auto probe_checkpoint = [&](PassLog* log) {
    const RoundTrip rt = round_trip(ref, first, inject);
    tally->op(rt.ok);
    if (rt.ok) {
      log->checkpoint_ms.push_back(rt.snapshot_ms);
      log->restore_ms.push_back(rt.restore_ms);
    }
    bool valid = false;
    log->scrape_ms.push_back(scrape_ms(ref, &valid));
    tally->op(valid);
  };

  // Closed loop: the next step starts when the previous one returns, and a
  // finished session is replaced by the next realization's.  Every pass
  // runs the same `pass_steps` steps from a fresh first session, pinned to
  // its own CPU, round the CPUs the process may use: a CPU that stays slow
  // for the whole run then slows one pass, not all of them.  Every
  // `probe_every` steps a set-up repetition (and, on workloads that do not
  // checkpoint while stepping, a checkpoint and scrape probe of the
  // reference state) runs between two steps, at the same steps in every
  // pass.  `busy_s` counts steps plus the service's in-loop checkpoint and
  // scrape work; input generation, set-up, probes and checks are excluded.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<PassLog> passes(static_cast<std::size_t>(w.passes));
  std::size_t sessions = 1;
  double busy_total_s = 0.0;
  double rss_mb = 0.0;
  bool broken = false;
  for (int pass = 0; pass < w.passes && !broken; ++pass) {
    PassLog& log = passes[static_cast<std::size_t>(pass)];
    if (!cpus.empty()) {
      pin_to({cpus[static_cast<std::size_t>(pass) % cpus.size()]});
    }
    std::size_t session = 0;
    Instance x = build(first, 1, registry, false);
    log.setup_s.push_back(x.setup_s);
    std::int64_t steps = 0;
    double busy_s = 0.0;
    while (steps < pass_steps) {
      if (x.session->done()) {
        tally->op(conserved(x.session->report()));
        x = Instance();
        if (++session == inputs.size()) {
          inputs.push_back(
              make_inputs(w, seed, static_cast<int>(session), tiny));
        }
        x = build(inputs[session], 1, registry, false);
        log.setup_s.push_back(x.setup_s);
        continue;
      }
      if (steps % w.probe_every == 0) {
        log.setup_s.push_back(build(first, 1, registry, false).setup_s);
        if (!w.service) probe_checkpoint(&log);
      }
      const Clock::time_point t0 = Clock::now();
      bool ok = true;
      try {
        x.session->step();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "step failed: %s\n", e.what());
        ok = false;
      }
      const double dt = seconds_since(t0);
      tally->op(ok);
      if (!ok) {  // The run is incorrect; stop rather than spin.
        broken = true;
        break;
      }
      double work_s = dt;
      log.step_ms.push_back(dt * 1e3);
      ++steps;
      const std::int64_t at = x.session->step_index();
      if (session == 0 && at == first.check_steps) {
        std::uint32_t digest = crc_of(summary_json(*x.session));
        if (inject == Inject::kCorruptDigest) digest ^= 0x1u;
        const bool same = ref_ok && digest == ref_digest;
        tally->op(same);
        if (!same) {
          std::printf("pass %d: summary digest at step %d: timed %08x, "
                      "traced 1-lane %08x  MISMATCH\n",
                      pass, first.check_steps, digest, ref_digest);
        }
      }
      if (w.service && at % steps_per_hour == 0) {
        const RoundTrip rt = round_trip(x, inputs[session], inject);
        tally->op(rt.ok);
        if (rt.ok) {
          log.checkpoint_ms.push_back(rt.snapshot_ms);
          log.restore_ms.push_back(rt.restore_ms);
          work_s += (rt.snapshot_ms + rt.restore_ms) / 1e3;
        }
        bool valid = false;
        const double ms = scrape_ms(x, &valid);
        tally->op(valid);
        log.scrape_ms.push_back(ms);
        work_s += ms / 1e3;
      }
      log.work_s.push_back(work_s);
      busy_s += work_s;
      if (pass == 0 && session == 0 && x.session->done()) {
        // Peak RSS over a fixed amount of work: the reference state, the
        // first session and the probes that ran while it stepped.
        rss_mb = peak_rss_mb();
      }
    }
    if (!broken) tally->op(conserved(x.session->report()));
    sessions = std::max(sessions, session + 1);
    busy_total_s += busy_s;
  }
  pin_to(cpus);

  // The checkpoint size at the check step is exact for a given seed.
  const RoundTrip last = round_trip(ref, first, inject);
  tally->op(last.ok);
  const double checkpoint_mb = static_cast<double>(last.bytes.size()) / 1e6;
  ref = Instance();

  const std::vector<double> step_ms = best_of(passes, &PassLog::step_ms);
  double best_busy_s = 0.0;
  for (const double s : best_of(passes, &PassLog::work_s)) best_busy_s += s;
  const std::vector<double> setup_s = best_of(passes, &PassLog::setup_s);
  const std::vector<double> checkpoint_ms =
      best_of(passes, &PassLog::checkpoint_ms);
  const double sim_hours = static_cast<double>(step_ms.size()) *
                           first.opts.step_seconds / 3600.0;
  std::printf("timed loop: %d passes of %lld steps (%zu session(s), %s "
              "simulated h) in %s host s, best of passes %s host s; %zu "
              "set-ups, %zu checkpoints; step_ms_p99 reports p%g\n",
              w.passes, static_cast<long long>(pass_steps), sessions,
              number(sim_hours).c_str(), number(busy_total_s).c_str(),
              number(best_busy_s).c_str(), setup_s.size(),
              checkpoint_ms.size(), w.tail_pct);
  return {
      {"setup_s", median(setup_s), "s"},
      {"sim_hours_per_s", ratio(sim_hours, best_busy_s), "sim_h/s"},
      {"step_ms_p50", percentile(step_ms, 50.0), "ms"},
      {"step_ms_p99", percentile(step_ms, w.tail_pct), "ms"},
      {"checkpoint_ms_p50", median(checkpoint_ms), "ms"},
      {"restore_ms_p50", median(best_of(passes, &PassLog::restore_ms)), "ms"},
      {"scrape_ms_p50", median(best_of(passes, &PassLog::scrape_ms)), "ms"},
      {"checkpoint_mb", checkpoint_mb, "MB"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

// --- Traced run (--trace 1) --------------------------------------------------

/// Lanes of the traced run's thread-count check.  The timed and traced
/// passes run at 1 lane: a timed pass is pinned to one CPU.
constexpr int kCheckLanes = 2;

struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
};

struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Folds the Chrome-trace export into per-name totals, and keeps the
/// `sim.execute` intervals for attributing weather calls to that stage.
std::map<std::string, SpanTotals> fold_spans(
    std::vector<Interval>* execute_intervals) {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string text = std::move(out).str();
  std::map<std::string, SpanTotals> totals;
  std::size_t pos = 0;
  constexpr std::string_view kName = "\"name\": \"";
  constexpr std::string_view kTs = "\"ts\": ";
  constexpr std::string_view kDur = "\"dur\": ";
  while ((pos = text.find(kName, pos)) != std::string::npos) {
    pos += kName.size();
    const std::size_t end = text.find('"', pos);
    const std::string name = text.substr(pos, end - pos);
    const std::size_t ts_at = text.find(kTs, end);
    const std::size_t dur_at = text.find(kDur, end);
    if (ts_at == std::string::npos || dur_at == std::string::npos) break;
    const double ts_us = std::strtod(text.c_str() + ts_at + kTs.size(), nullptr);
    const double dur_us =
        std::strtod(text.c_str() + dur_at + kDur.size(), nullptr);
    SpanTotals& t = totals[name];
    t.count += 1;
    t.total_ms += dur_us / 1e3;
    if (name == "sim.execute") {
      const auto start = static_cast<std::int64_t>(std::llround(ts_us * 1e3));
      execute_intervals->push_back(
          {start, start + static_cast<std::int64_t>(std::llround(dur_us * 1e3))});
    }
    pos = dur_at;
  }
  return totals;
}

/// Reads a counter back from the exposition text rather than through a
/// typed handle, so a counter a later change removes reads 0 instead of
/// breaking the build.
double counter(const std::string& prometheus, std::string_view name) {
  double v = 0.0;
  return obs::read_prometheus_sample(prometheus, name, &v) ? v : 0.0;
}

std::vector<Metric> traced_run(const WorkloadSpec& w, std::uint64_t seed,
                               bool tiny, double seconds, Inject inject,
                               Tally* tally) {
  const Inputs in = make_inputs(w, seed, 0, tiny);
  print_header(w, seed, in);
  const Clock::time_point run_t0 = Clock::now();
  const int steps = in.check_steps;
  const double dt_s = in.opts.step_seconds;

  // 1. Traced 1-lane pass (spans on, registry and weather recorder on),
  // interleaved step by step with an untraced 1-lane pass of the same
  // inputs so both see the same host conditions; the two must end with
  // identical summaries.
  obs::clear_trace();
  Instance t = build(in, 1, true, true);
  Instance u = build(in, 1, false, false);
  double traced_s = 0.0;
  double untraced_s = 0.0;
  bool passes_ok = true;
  try {
    for (int k = 0; k < steps; ++k) {
      obs::set_trace_enabled(true);
      Clock::time_point t0 = Clock::now();
      t.session->step();
      traced_s += seconds_since(t0);
      obs::set_trace_enabled(false);
      t0 = Clock::now();
      u.session->step();
      untraced_s += seconds_since(t0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "traced pass failed: %s\n", e.what());
    passes_ok = false;
  }
  obs::set_trace_enabled(false);
  tally->op(passes_ok);
  std::vector<Interval> execute;
  const std::map<std::string, SpanTotals> spans = fold_spans(&execute);
  obs::clear_trace();
  const auto span_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  const auto span_count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  std::ostringstream prom_out;
  t.registry->write_prometheus(prom_out);
  const std::string prom = std::move(prom_out).str();
  std::uint32_t traced_digest = crc_of(summary_json(*t.session));
  if (inject == Inject::kCorruptDigest) traced_digest ^= 0x1u;
  const bool same_1 = crc_of(summary_json(*u.session)) == traced_digest;
  tally->op(same_1);

  // 2. The same steps untraced at more lanes (thread-count contract).
  Instance l = build(in, kCheckLanes, false, false);
  for (int k = 0; k < steps; ++k) l.session->step();
  const bool same_lanes = crc_of(summary_json(*l.session)) == traced_digest;
  tally->op(same_lanes);
  l = Instance();
  tally->op(conserved(t.session->report()));
  std::printf("summary digest after %d steps: traced 1-lane %08x, untraced "
              "1-lane %s, untraced %d-lane %s\n",
              steps, traced_digest, same_1 ? "equal" : "MISMATCH", kCheckLanes,
              same_lanes ? "equal" : "MISMATCH");

  // 3. Weather calls: all of them, and those made inside the execute
  // stage (actual weather deciding each assignment's outcome).
  double wx_calls = 0.0;
  double wx_ms = 0.0;
  double wx_exec_ms = 0.0;
  if (t.recorder) {
    std::sort(execute.begin(), execute.end(),
              [](const Interval& a, const Interval& b) {
                return a.start_ns < b.start_ns;
              });
    for (const RecordingWeather::Call& c : t.recorder->calls()) {
      wx_calls += 1.0;
      wx_ms += static_cast<double>(c.dur_ns) / 1e6;
      auto it = std::upper_bound(
          execute.begin(), execute.end(), c.start_ns,
          [](std::int64_t v, const Interval& iv) { return v < iv.start_ns; });
      if (it != execute.begin() && c.start_ns < std::prev(it)->end_ns) {
        wx_exec_ms += static_cast<double>(c.dur_ns) / 1e6;
      }
    }
  }

  // 4. Checkpoint and exposition of the traced session's final state.
  Clock::time_point t0;
  std::vector<double> snap_ms, rest_ms, prom_ms, summ_ms;
  std::map<std::string, double> section_bytes;
  for (int r = 0; r < 5; ++r) {
    const RoundTrip rt = round_trip(t, in, inject);
    tally->op(rt.ok);
    if (rt.ok) {
      snap_ms.push_back(rt.snapshot_ms);
      rest_ms.push_back(rt.restore_ms);
    }
    if (r == 0) {
      core::CheckpointView view;
      if (!core::read_checkpoint(rt.bytes, &view)) {
        for (const auto& [name, body] : view.sections) {
          section_bytes[name] = static_cast<double>(body.size());
        }
      }
    }
    t0 = Clock::now();
    std::ostringstream p;
    t.registry->write_prometheus(p);
    prom_ms.push_back(seconds_since(t0) * 1e3);
    const core::SimulationResult res = t.session->report();
    t0 = Clock::now();
    std::ostringstream s;
    core::write_summary_json(s, res);
    summ_ms.push_back(seconds_since(t0) * 1e3);
    tally->op(!core::validate_summary_json(s.str()).has_value());
  }

  // 5. Replays of single-layer public calls on the traced pass's epochs,
  // cycled until the run's time budget is spent (at least once).
  std::vector<util::Epoch> epochs;
  for (int k = 0; k < steps; ++k) {
    epochs.push_back(in.opts.start.plus_seconds(static_cast<double>(k) * dt_s));
  }
  std::vector<orbit::Tle> tles;
  for (const groundseg::SatelliteConfig& s : in.sats) tles.push_back(s.tle);
  const orbit::Sgp4Batch batch(tles);
  std::vector<util::Vec3> ecef(in.sats.size());
  const core::VisibilityEngine clear(in.sats, in.stations, nullptr);

  // Link-budget inputs per epoch: the clear-sky engine's edges with the
  // actual weather at their station (sampled once, outside the timing).
  std::vector<std::vector<std::pair<core::ContactEdge, weather::WeatherSample>>>
      link_inputs(epochs.size());
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    for (const core::ContactEdge& e : clear.contacts(epochs[k])) {
      weather::WeatherSample wx;
      if (t.wx) {
        const groundseg::GroundStation& gs = in.stations[e.station];
        wx = t.wx->actual(gs.location.latitude_rad, gs.location.longitude_rad,
                          epochs[k]);
      }
      link_inputs[k].emplace_back(e, wx);
    }
  }

  std::optional<faults::FaultTimeline> timeline;
  if (in.opts.faults.has_station_faults()) {
    timeline.emplace(in.opts.faults, static_cast<int>(in.stations.size()),
                     in.steps_per_session, dt_s);
  }
  double stations_down = 0.0;
  std::vector<char> down;
  if (timeline) {
    for (int k = 0; k < steps; ++k) {
      timeline->fill_station_down(k, &down);
      for (const char d : down) stations_down += d != 0 ? 1.0 : 0.0;
    }
  }

  std::vector<double> orbit_ms, clear_ms, link_ns, fault_us;
  double link_calls = 0.0;
  do {
    Clock::time_point c0 = Clock::now();
    for (const util::Epoch& e : epochs) batch.positions_ecef(e, ecef, nullptr);
    orbit_ms.push_back(seconds_since(c0) * 1e3 / steps);

    c0 = Clock::now();
    for (const util::Epoch& e : epochs) clear.contacts(e);
    clear_ms.push_back(seconds_since(c0) * 1e3 / steps);

    link_calls = 0.0;
    c0 = Clock::now();
    for (const auto& per_epoch : link_inputs) {
      for (const auto& [e, wx] : per_epoch) {
        const groundseg::GroundStation& gs = in.stations[e.station];
        link::PathConditions path;
        path.range_km = e.range_km;
        path.elevation_rad = e.elevation_rad;
        path.site_latitude_rad = gs.location.latitude_rad;
        path.site_altitude_km = gs.location.altitude_km;
        path.rain_rate_mm_h = wx.rain_rate_mm_h;
        path.cloud_liquid_kg_m2 = wx.cloud_liquid_kg_m2;
        link::ReceiveSystem rx = gs.receiver;
        if (gs.beam_count > 1) rx.aperture_efficiency /= gs.beam_count;
        link::evaluate_link(in.sats[e.sat].radio, rx, path);
        link_calls += 1.0;
      }
    }
    link_ns.push_back(ratio(seconds_since(c0) * 1e9, link_calls));

    if (timeline) {
      c0 = Clock::now();
      for (int k = 0; k < steps; ++k) timeline->fill_station_down(k, &down);
      fault_us.push_back(seconds_since(c0) * 1e6 / steps);
    }
  } while (seconds_since(run_t0) < seconds);

  // Pass blocks per scheduled window: find_pass_blocks at each window
  // start of the traced pass, with the down mask the session planned with.
  double windows = 0.0;
  double pass_blocks = 0.0;
  if (in.opts.lookahead_hours > 0.0 && t.wx) {
    const core::VisibilityEngine planner(in.sats, in.stations, t.wx.get());
    const int window =
        static_cast<int>(std::llround(in.opts.lookahead_hours * 3600.0 / dt_s));
    for (int k = 0; k < steps; k += window) {
      const int len = static_cast<int>(
          std::min<std::int64_t>(window, in.steps_per_session - k));
      std::vector<char> mask;
      if (timeline) timeline->fill_station_down(k, &mask);
      pass_blocks += static_cast<double>(
          core::find_pass_blocks(planner, epochs[k], len, dt_s, mask).size());
      windows += 1.0;
    }
  }

  const double n = static_cast<double>(steps);
  const double step_total = span_ms("sim.step");
  const double budget_ns = median(link_ns);
  const double assignments = counter(prom, "dgs_sim_assignments_total");
  const double instants = counter(prom, "dgs_sched_instants_total");
  const double warm_hits = counter(prom, "dgs_sched_warm_hits_total");
  const double cull_candidates = counter(prom, "dgs_vis_cull_candidates_total");
  const double cull_precise = counter(prom, "dgs_vis_cull_precise_total");
  const double cache_hits = counter(prom, "dgs_geometry_cache_hits_total");
  const double cache_misses = counter(prom, "dgs_geometry_cache_misses_total");
  const double plan_windows = span_count("plan.horizon");
  const double execute_self = span_ms("sim.execute") - wx_exec_ms -
                              assignments * budget_ns / 1e6;
  const double staged = span_ms("sim.generate") + span_ms("sim.schedule") +
                        span_ms("sim.execute") + span_ms("sim.backhaul");

  std::printf("traced pass: %d steps, %s host s traced vs %s untraced\n",
              steps, number(traced_s).c_str(), number(untraced_s).c_str());
  const auto finding = [](const char* what, double hits, double base,
                          const char* base_name) {
    std::printf("ratio %s = %s (%s of %s %s)%s\n", what,
                number(ratio(hits, base)).c_str(), number(hits).c_str(),
                number(base).c_str(), base_name,
                base > 0.0 && hits == 0.0 ? "  FINDING: reads 0" : "");
  };
  finding("scheduler.warm_hit_ratio", warm_hits, instants, "instants");
  finding("visibility.geometry_cache_hit_ratio", cache_hits,
          cache_hits + cache_misses, "cache lookups");
  finding("visibility.cull_precise_ratio", cull_precise, cull_candidates,
          "cull candidates");

  std::vector<Metric> m = {
      {"session.steps", n, "count"},
      {"orbit.propagate_ms_per_step", median(orbit_ms), "ms"},
      {"orbit.propagations", counter(prom, "dgs_vis_propagations_total"),
       "count"},
      {"weather.samples_per_step", wx_calls / n, "count"},
      {"weather.sample_us_per_call", ratio(wx_ms * 1e3, wx_calls), "us"},
      {"weather.busy_ms_per_step", wx_ms / n, "ms"},
      {"weather.storms",
       t.wx ? static_cast<double>(t.wx->storm_count()) : 0.0, "count"},
      {"link.budget_ns_per_call", budget_ns, "ns"},
      {"link.budgets_per_step", counter(prom, "dgs_vis_link_budgets_total") / n,
       "count"},
      {"visibility.contacts_ms_per_step", span_ms("vis.contacts") / n, "ms"},
      {"visibility.contacts_clearsky_ms_per_step", median(clear_ms), "ms"},
      {"visibility.edges_per_step",
       counter(prom, "dgs_vis_contact_edges_total") / n, "count"},
      {"visibility.cull_candidates_per_step", cull_candidates / n, "count"},
      {"visibility.cull_precise_ratio", ratio(cull_precise, cull_candidates),
       "ratio"},
      {"visibility.geometry_cache_lookups", cache_hits + cache_misses,
       "count"},
      {"visibility.geometry_cache_hit_ratio",
       ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"scheduler.instants", instants, "count"},
      {"scheduler.schedule_instant_ms_per_step", span_ms("sched.instant") / n,
       "ms"},
      {"scheduler.matching_ms_per_step", span_ms("sched.match") / n, "ms"},
      {"scheduler.matched_edges_per_step",
       counter(prom, "dgs_sched_matched_edges_total") / n, "count"},
      {"scheduler.warm_hit_ratio", ratio(warm_hits, instants), "ratio"},
      {"lookahead.windows", plan_windows, "count"},
      {"lookahead.find_pass_blocks_ms_per_window",
       ratio(span_ms("plan.blocks"), plan_windows), "ms"},
      {"lookahead.plan_horizon_ms_per_window",
       ratio(span_ms("plan.horizon"), plan_windows), "ms"},
      {"lookahead.pass_blocks_per_window", ratio(pass_blocks, windows),
       "count"},
      {"lookahead.replans", counter(prom, "dgs_faults_replans_total"), "count"},
      {"session.step_ms", step_total / n, "ms"},
      {"session.generate_self_ms", span_ms("sim.generate") / n, "ms"},
      {"session.schedule_self_ms",
       (span_ms("sim.schedule") - span_ms("sched.instant") -
        span_ms("plan.horizon")) / n,
       "ms"},
      {"session.execute_self_ms", execute_self / n, "ms"},
      {"session.backhaul_self_ms", span_ms("sim.backhaul") / n, "ms"},
      {"session.unstaged_self_ms", (step_total - staged) / n, "ms"},
      {"checkpoint.snapshot_ms", median(snap_ms), "ms"},
      {"checkpoint.restore_ms", median(rest_ms), "ms"},
  };
  for (const char* name : core::checkpoint_section_names()) {
    m.push_back({std::string("checkpoint.section_bytes.") + name,
                 section_bytes[name], "bytes"});
  }
  m.push_back({"faults.fill_station_down_us_per_step", median(fault_us), "us"});
  m.push_back({"faults.stations_down_mean", stations_down / n, "count"});
  m.push_back({"obs.write_prometheus_ms", median(prom_ms), "ms"});
  m.push_back({"obs.summary_json_ms", median(summ_ms), "ms"});
  m.push_back({"obs.trace_overhead_frac", ratio(untraced_s, traced_s) - 1.0,
               "ratio"});
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: dgs_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] "
               "[--inject corrupt-digest|break-roundtrip]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  Inject inject = Inject::kNone;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      tiny = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      workload = find_workload(value);
      if (workload == nullptr) return usage();
      ++i;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
      ++i;
    } else if (arg == "--trace") {
      trace = std::atoi(value);
      ++i;
    } else if (arg == "--inject") {
      if (std::strcmp(value, "corrupt-digest") == 0) {
        inject = Inject::kCorruptDigest;
      } else if (std::strcmp(value, "break-roundtrip") == 0) {
        inject = Inject::kBreakRoundTrip;
      } else {
        return usage();
      }
      ++i;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    Tally tally;
    const std::vector<Metric> metrics =
        trace == 0
            ? timed_run(*workload, seed, tiny, seconds, inject, &tally)
            : traced_run(*workload, seed, tiny, seconds, inject, &tally);
    print_metrics(trace == 0 ? "end-to-end metrics (tracing off):"
                             : "per-layer metrics (traced run):",
                  metrics);
    print_result(tally, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dgs_perfbench: %s\n", e.what());
    return 1;
  }
}
