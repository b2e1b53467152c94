#include "src/campaign/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/campaign/manifest.h"
#include "src/core/report.h"
#include "src/faults/fault_rng.h"
#include "src/faults/profiles.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/weather/synthetic.h"

namespace dgs::campaign {
namespace {

namespace fs = std::filesystem;

/// Fixed scenario epoch (same reference as dgs_cli): campaigns sample the
/// fault space, not the calendar.
util::Epoch campaign_epoch() {
  return util::Epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
}

/// The per-sample scalars the aggregate reports, in emission order.
/// Latency/backlog come from the summary's percentile objects (per-run
/// mean and p99); the rest are summary scalars.
constexpr const char* kAggregateMetrics[] = {
    "latency_mean_minutes", "latency_p99_minutes", "backlog_mean_gb",
    "backlog_p99_gb",       "outage_lost_tb",      "delivered_fraction",
    "total_delivered_tb",   "ack_retries",         "replans",
};

/// Per-run obs counters folded (summed across samples) into the
/// campaign-level registry, re-exposed as dgs_campaign_<suffix>.
constexpr const char* kFoldedSeries[] = {
    "dgs_sim_generated_bytes_total",
    "dgs_sim_delivered_bytes_total",
    "dgs_sim_assignments_total",
    "dgs_sim_failed_assignments_total",
    "dgs_faults_outage_lost_bytes_total",
    "dgs_faults_ack_retries_total",
    "dgs_faults_replans_total",
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Crash-safe write: a sample artifact either exists complete or not at
/// all (rename within one directory is atomic on POSIX).
void write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    // dgslint: allow(R4) -- campaign I/O errors are runtime_error by contract
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << text;
    // dgslint: allow(R4) -- campaign I/O errors are runtime_error by contract
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  fs::rename(tmp, path);
}

std::string summary_path(const CampaignOptions& o, int i) {
  return sample_dir(o, i) + "/summary.json";
}

/// Done marker: a validating summary plus the configured sibling sinks.
bool sample_done(const CampaignOptions& o, int i) {
  std::string text;
  if (!read_file(summary_path(o, i), &text)) return false;
  if (core::validate_summary_json(text)) return false;
  const std::string dir = sample_dir(o, i);
  if (o.write_metrics && !fs::exists(dir + "/metrics.txt")) return false;
  if (o.write_events && !fs::exists(dir + "/events.jsonl")) return false;
  return true;
}

void run_pending_serial(const CampaignOptions& o,
                        const std::vector<int>& pending) {
  for (const int i : pending) run_sample(o, i);
}

/// Shards `pending` across `workers` forked processes, worker w taking
/// samples w, w+W, w+2W, ...  The shard rule only affects which process
/// computes a sample, never its content.
void run_pending_sharded(const CampaignOptions& o,
                         const std::vector<int>& pending, int workers) {
#ifndef __unix__
  (void)workers;
  run_pending_serial(o, pending);
#else
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids;
  for (int w = 0; w < workers; ++w) {
    const pid_t pid = fork();
    // dgslint: allow(R4) -- worker spawn failure is runtime_error by contract
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
      // Worker process: compute the shard, then bypass atexit handlers
      // (the parent owns all shared state).
      try {
        for (std::size_t k = static_cast<std::size_t>(w);
             k < pending.size();
             k += static_cast<std::size_t>(workers)) {
          run_sample(o, pending[k]);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign worker %d: %s\n", w, e.what());
        std::fflush(stderr);
        _exit(1);
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  int failures = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++failures;
    }
  }
  if (failures > 0) {
    // dgslint: allow(R4) -- worker exit status is an environment error
    throw std::runtime_error(
        std::to_string(failures) +
        " campaign worker(s) failed; rerun to resume from the manifest");
  }
#endif
}

struct MetricSeries {
  std::vector<double> values;
};

void add_metric(std::vector<std::pair<std::string, MetricSeries>>* series,
                std::string_view name, double v) {
  for (auto& [n, s] : *series) {
    if (n == name) {
      s.values.push_back(v);
      return;
    }
  }
}

MetricAggregate aggregate_of(std::vector<double> values) {
  MetricAggregate a;
  a.count = static_cast<std::int64_t>(values.size());
  if (values.empty()) return a;
  double sum = 0.0;
  for (const double v : values) sum += v;
  a.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (const double v : values) sq += (v - a.mean) * (v - a.mean);
  a.sd = values.size() > 1
             ? std::sqrt(sq / static_cast<double>(values.size() - 1))
             : 0.0;
  a.ci95 = 1.96 * a.sd / std::sqrt(static_cast<double>(values.size()));
  std::sort(values.begin(), values.end());
  a.p50 = util::percentile(values, 50.0);
  a.p99 = util::percentile(values, 99.0);
  a.min = values.front();
  a.max = values.back();
  return a;
}

std::string render_aggregate(const CampaignOptions& o,
                             const CampaignResult& r) {
  std::ostringstream out;
  out << "{\n  ";
  core::write_artifact_header(out, "campaign_aggregate", ",\n  ");
  out << ",\n" << render_campaign_identity(o) << ",\n  \""
      << core::kAggregateMetricsKey << "\": {\n";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, a] = r.metrics[i];
    out << "    \"" << name << "\": {";
    core::write_fields(out, core::aggregate_metric_specs(), a, ", ");
    out << (i + 1 < r.metrics.size() ? "},\n" : "}\n");
  }
  out << "  }\n}\n";
  return out.str();
}

/// Reads every sample summary in index order (the determinism anchor:
/// neither worker count nor completion order can reorder this fold),
/// harvesting aggregate metric series and the obs snapshot fold.
void aggregate_samples(const CampaignOptions& o, CampaignResult* r,
                       obs::Registry* campaign_metrics) {
  std::vector<std::pair<std::string, MetricSeries>> series;
  for (const char* name : kAggregateMetrics) {
    series.emplace_back(name, MetricSeries{});
  }
  std::vector<double> folded(std::size(kFoldedSeries), 0.0);
  for (int i = 0; i < o.samples; ++i) {
    std::string text;
    if (!read_file(summary_path(o, i), &text)) {
      // dgslint: allow(R4) -- missing artifact on resume is runtime_error
      throw std::runtime_error("missing sample summary " +
                               summary_path(o, i));
    }
    core::RunSummary summary;
    if (const auto e = core::parse_summary_json(text, &summary)) {
      // dgslint: allow(R4) -- corrupt artifact on resume is runtime_error
      throw std::runtime_error(summary_path(o, i) + ": " + e->where +
                               ": " + e->message);
    }
    if (const core::JsonValue* lat = summary.stats("latency_minutes")) {
      add_metric(&series, "latency_mean_minutes", lat->find("mean")->number);
      add_metric(&series, "latency_p99_minutes", lat->find("p99")->number);
    }
    if (const core::JsonValue* bk = summary.stats("backlog_gb")) {
      add_metric(&series, "backlog_mean_gb", bk->find("mean")->number);
      add_metric(&series, "backlog_p99_gb", bk->find("p99")->number);
    }
    add_metric(&series, "outage_lost_tb", summary.scalar("outage_lost_tb"));
    add_metric(&series, "delivered_fraction",
               summary.scalar("delivered_fraction"));
    add_metric(&series, "total_delivered_tb",
               summary.scalar("total_delivered_tb"));
    add_metric(&series, "ack_retries", summary.scalar("ack_retries"));
    add_metric(&series, "replans", summary.scalar("replans"));

    if (o.write_metrics) {
      std::string metrics_text;
      if (read_file(sample_dir(o, i) + "/metrics.txt", &metrics_text)) {
        for (std::size_t f = 0; f < std::size(kFoldedSeries); ++f) {
          double v = 0.0;
          // Fault-free samples never register dgs_faults_* series;
          // absent folds as zero.
          if (obs::read_prometheus_sample(metrics_text, kFoldedSeries[f],
                                          &v)) {
            folded[f] += v;
          }
        }
      }
    }
  }
  for (auto& [name, s] : series) {
    if (s.values.empty()) continue;  // e.g. all-null latency sets
    r->metrics.emplace_back(name, aggregate_of(std::move(s.values)));
  }
  campaign_metrics
      ->counter("dgs_campaign_samples_total",
                "Samples with valid artifacts in this campaign")
      ->inc(static_cast<double>(r->samples));
  campaign_metrics
      ->counter("dgs_campaign_samples_reused_total",
                "Samples found done and skipped by the last invocation")
      ->inc(static_cast<double>(r->reused));
  campaign_metrics
      ->counter("dgs_campaign_samples_computed_total",
                "Samples computed by the last invocation")
      ->inc(static_cast<double>(r->computed));
  if (o.write_metrics) {
    for (std::size_t f = 0; f < std::size(kFoldedSeries); ++f) {
      // dgs_sim_x_total -> dgs_campaign_sim_x_total etc.
      const std::string name =
          "dgs_campaign_" + std::string(kFoldedSeries[f]).substr(4);
      campaign_metrics
          ->counter(name, std::string("Sum of ") + kFoldedSeries[f] +
                              " across sample runs")
          ->inc(folded[f]);
    }
  }
}

}  // namespace

std::optional<core::OptionsError> CampaignOptions::validate() const {
  const auto err = [](const char* field, std::string message) {
    return core::OptionsError{field, std::move(message)};
  };
  try {
    static_cast<void>(faults::make_profile(profile, 0, 1));
  } catch (const std::invalid_argument&) {
    return err("profile", "unknown fault profile \"" + profile +
                              "\" (known: " + faults::profile_names() + ")");
  }
  if (samples < 1) {
    return err("samples",
               "must be >= 1 (got " + std::to_string(samples) + ")");
  }
  if (workers < 0) {
    return err("workers",
               "must be >= 0 (got " + std::to_string(workers) + ")");
  }
  if (!(duration_hours > 0.0)) {
    return err("duration_hours", "must be > 0");
  }
  if (!(step_seconds > 0.0)) return err("step_seconds", "must be > 0");
  if (num_satellites < 1) return err("num_satellites", "must be >= 1");
  if (num_stations < 1) return err("num_stations", "must be >= 1");
  // The manifest records each seed as a JSON number, which a reader can
  // only take back exactly up to 2^53 - 1.
  for (const auto& [field, seed] : {std::pair{"campaign_seed", campaign_seed},
                                    std::pair{"network_seed", network_seed},
                                    std::pair{"weather_seed", weather_seed}}) {
    if (seed > core::kMaxArtifactInteger) {
      return err(field, "must be <= 2^53 - 1 = " +
                            std::to_string(core::kMaxArtifactInteger) +
                            " (got " + std::to_string(seed) + ")");
    }
  }
  if (out_dir.empty()) return err("out_dir", "must be non-empty");
  return std::nullopt;
}

std::string sample_dir(const CampaignOptions& opts, int sample_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/samples/sample_%04d", sample_index);
  return opts.out_dir + buf;
}

std::string manifest_path(const CampaignOptions& opts) {
  return opts.out_dir + "/manifest.json";
}

std::string aggregate_path(const CampaignOptions& opts) {
  return opts.out_dir + "/aggregate.json";
}

void run_sample(const CampaignOptions& o, int sample_index) {
  groundseg::NetworkOptions net;
  net.num_satellites = o.num_satellites;
  net.num_stations = o.num_stations;
  net.seed = o.network_seed;
  const util::Epoch start = campaign_epoch();
  const auto sats = groundseg::generate_constellation(net, start);
  const auto stations = groundseg::generate_dgs_stations(net);

  core::SimulationOptions opts;
  opts.start = start;
  opts.duration_hours = o.duration_hours;
  opts.step_seconds = o.step_seconds;
  const std::uint64_t sample_seed =
      faults::campaign_sample_seed(o.campaign_seed, sample_index);
  opts.faults = faults::make_profile(o.profile, sample_seed, o.num_stations);
  // The brownout channels need a modelled backhaul to degrade (same rule
  // as dgs_cli).
  if (opts.faults.has_backhaul_faults()) opts.station_backhaul_bps = 50e6;
  if (const auto e = opts.validate(o.num_stations)) {
    // dgslint: allow(R4) -- renders OptionsError; format is test-pinned
    throw std::runtime_error("SimulationOptions." + e->field + ": " +
                             e->message);
  }

  obs::Registry registry;
  if (o.write_metrics) opts.metrics = &registry;
  std::ostringstream events;
  obs::EventLog event_log(&events);
  if (o.write_events) opts.events = &event_log;

  weather::SyntheticWeatherProvider wx(o.weather_seed, start,
                                       o.duration_hours + 1.0);
  const core::SimulationResult result =
      core::Simulator(sats, stations, &wx, opts).run();

  const std::string dir = sample_dir(o, sample_index);
  fs::create_directories(dir);
  if (o.write_events) {
    write_file_atomic(dir + "/events.jsonl", events.str());
  }
  if (o.write_metrics) {
    std::ostringstream m;
    registry.write_prometheus(m);
    write_file_atomic(dir + "/metrics.txt", m.str());
  }
  // The summary is the done marker, so it lands last: a killed worker
  // leaves either no summary or a fully valid sample.
  std::ostringstream s;
  core::write_summary_json(s, result);
  write_file_atomic(dir + "/summary.json", s.str());
}

CampaignResult run_campaign(const CampaignOptions& o, std::ostream* log) {
  if (const auto e = o.validate()) {
    // dgslint: allow(R4) -- renders OptionsError; format is test-pinned
    throw std::runtime_error("CampaignOptions." + e->field + ": " +
                             e->message);
  }
  fs::create_directories(o.out_dir + "/samples");
  write_or_check_manifest(o);

  CampaignResult r;
  r.samples = o.samples;
  std::vector<int> pending;
  for (int i = 0; i < o.samples; ++i) {
    if (sample_done(o, i)) {
      ++r.reused;
    } else {
      pending.push_back(i);
    }
  }
  r.computed = static_cast<int>(pending.size());
  int workers = o.workers != 0 ? o.workers : util::hardware_concurrency();
  workers = std::clamp(workers, 1,
                       std::max(1, static_cast<int>(pending.size())));
  if (log != nullptr) {
    *log << "campaign " << o.profile << " seed " << o.campaign_seed << ": "
         << r.reused << " of " << o.samples
         << " samples already done, computing " << pending.size()
         << " across " << workers << " worker(s)\n";
  }
  if (!pending.empty()) {
    if (workers <= 1) {
      run_pending_serial(o, pending);
    } else {
      run_pending_sharded(o, pending, workers);
    }
  }

  obs::Registry campaign_metrics;
  aggregate_samples(o, &r, &campaign_metrics);
  write_file_atomic(aggregate_path(o), render_aggregate(o, r));
  std::ostringstream m;
  campaign_metrics.write_prometheus(m);
  write_file_atomic(o.out_dir + "/campaign_metrics.txt", m.str());
  if (log != nullptr) {
    *log << "wrote " << aggregate_path(o) << " (" << r.metrics.size()
         << " metrics over " << o.samples << " samples)\n";
  }
  return r;
}

std::optional<core::ArtifactError> validate_campaign_dir(
    const std::string& dir) {
  const auto fail = [](std::string where, std::string message) {
    return core::ArtifactError{std::move(where), std::move(message)};
  };
  std::string manifest_text;
  if (!read_file(dir + "/manifest.json", &manifest_text)) {
    return fail(dir + "/manifest.json", "missing");
  }
  if (auto e = core::validate_campaign_manifest_json(manifest_text)) {
    return fail(dir + "/manifest.json: " + e->where, e->message);
  }
  const auto manifest = core::parse_restricted_json(manifest_text);
  const int samples =
      static_cast<int>(manifest->find("samples")->number);

  for (int i = 0; i < samples; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/samples/sample_%04d", i);
    const std::string sdir = dir + buf;
    std::string text;
    if (!read_file(sdir + "/summary.json", &text)) continue;  // not done
    if (auto e = core::validate_summary_json(text)) {
      return fail(sdir + "/summary.json: " + e->where, e->message);
    }
    if (read_file(sdir + "/events.jsonl", &text)) {
      if (auto e = core::validate_events_jsonl(text)) {
        return fail(sdir + "/events.jsonl: " + e->where, e->message);
      }
    }
  }

  std::string aggregate_text;
  if (!read_file(dir + "/aggregate.json", &aggregate_text)) {
    return fail(dir + "/aggregate.json", "missing");
  }
  if (auto e = core::validate_campaign_aggregate_json(aggregate_text)) {
    return fail(dir + "/aggregate.json: " + e->where, e->message);
  }
  // The aggregate must describe the same campaign as the manifest.
  const auto aggregate = core::parse_restricted_json(aggregate_text);
  for (const auto& row : core::campaign_identity_specs()) {
    const core::JsonValue* a = manifest->find(row.key);
    const core::JsonValue* b = aggregate->find(row.key);
    const bool match =
        a->kind == b->kind &&
        (a->kind == core::JsonValue::Kind::kString ? a->text == b->text
                                                   : a->number == b->number);
    if (!match) {
      return fail(dir + "/aggregate.json: aggregate." + row.key,
                  "does not match the manifest");
    }
  }
  return std::nullopt;
}

}  // namespace dgs::campaign
