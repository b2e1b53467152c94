// dgs_serve — multi-tenant service front end for the steppable Session
// API (DESIGN.md §16).
//
//   dgs_serve <tle-file> <stations-csv> [hours]
//             [--tenant <name>:<weight> ...] [--restore <checkpoint>]
//             [--threads <n>] [--stations-subset <file>]
//             [--fault-profile <name>] [--fault-seed <n>]
//             [--events-out <file>]
//
// The binary holds one core::Session and drives it with a newline command
// protocol on stdin; every response line (`ok ...` or `error ...`) goes to
// stdout, fatal startup errors to stderr.  Commands:
//
//   step [n]             advance n >= 0 quanta (default 1)
//   advance <hours>      step until the sim clock reaches <hours> >= 0
//   checkpoint <file>    write a dgs.checkpoint.v5 snapshot
//   restore <file>       replace the session from a snapshot
//   report <file|->      write the summary JSON (- = stdout)
//   metrics <file|->     write the Prometheus exposition (- = stdout)
//   quit                 exit (EOF does the same)
//
// --tenant declares fair-share tenants; the fleet is partitioned into
// contiguous equal slices in declaration order (the remainder goes to the
// last tenant).  --restore resumes from a checkpoint before the first
// command is read: the remaining steps reproduce an uninterrupted run
// byte for byte, at any --threads value, with or without --events-out on
// either side.  Checkpoints of the older v1 to v4 formats are rejected.
//
// A malformed command line (unknown verb, missing or non-numeric
// argument, extra tokens) gets one `error ...` reply and leaves the
// session unchanged.  So does a `restore` whose file cannot be read or
// holds no valid checkpoint for this scenario: the reply names the
// reason, and the current session keeps running.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "examples/cli_common.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/groundseg/io.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/util/parse.h"
#include "src/weather/synthetic.h"

namespace {

using namespace dgs;

int usage() {
  std::fprintf(stderr,
               "usage: dgs_serve <tle-file> <stations-csv> [hours]\n"
               "  [--tenant <name>:<weight> ...] [--restore <checkpoint>]\n"
               "%s"
               "commands on stdin: step [n] | advance <hours> | "
               "checkpoint <file> |\n"
               "  restore <file> | report <file|-> | metrics <file|-> | "
               "quit\n"
               "checkpoints are dgs.checkpoint.v5; v1 to v4 files are "
               "rejected\n",
               examples::common_flags_usage());
  return 2;
}

// "<name>:<weight>" -> TenantSpec with no satellites yet.
bool parse_tenant(const char* arg, core::TenantSpec* spec) {
  const char* colon = std::strchr(arg, ':');
  if (colon == nullptr || colon == arg) return false;
  spec->name.assign(arg, colon - arg);
  return util::parse_number(colon + 1, 0.0,
                            std::numeric_limits<double>::max(),
                            &spec->weight) &&
         spec->weight > 0.0;
}

// Contiguous equal slices in declaration order; remainder to the last.
void partition_fleet(int num_sats, std::vector<core::TenantSpec>* tenants) {
  const int n = static_cast<int>(tenants->size());
  const int per = num_sats / n;
  int next = 0;
  for (int t = 0; t < n; ++t) {
    const int count = t + 1 == n ? num_sats - next : per;
    for (int k = 0; k < count; ++k) (*tenants)[t].satellites.push_back(next++);
  }
}

// Writes to `path`, or to stdout when path is "-".
bool with_output(const std::string& path,
                 const std::function<void(std::ostream&)>& fn) {
  if (path == "-") {
    fn(std::cout);
    std::cout.flush();
    return true;
  }
  std::ofstream out(path);
  if (!out) return false;
  fn(out);
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();

  examples::CommonFlags flags;
  std::vector<core::TenantSpec> tenants;
  std::string restore_path;
  core::SimulationOptions opts;
  opts.start = util::Epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  for (int i = 3; i < argc; ++i) {
    const char* v = nullptr;
    if (examples::parse_common_flag(argc, argv, &i, &flags)) {
      continue;
    } else if (std::strcmp(argv[i], "--tenant") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      core::TenantSpec spec;
      if (!parse_tenant(v, &spec)) {
        std::fprintf(stderr, "error: bad --tenant %s (want name:weight)\n",
                     v);
        return 2;
      }
      tenants.push_back(std::move(spec));
    } else if (std::strcmp(argv[i], "--restore") == 0 &&
               (v = examples::flag_value(argc, argv, &i))) {
      restore_path = v;
    } else if (!examples::parse_hours(argv[i], &opts.duration_hours)) {
      std::fprintf(stderr,
                   "error: SimulationOptions.duration_hours: bad [hours] "
                   "\"%s\" (want a finite number >= 0)\n",
                   argv[i]);
      return 2;
    }
  }

  try {
    const auto catalog = groundseg::load_tle_file(argv[1]);
    const auto stations = groundseg::load_station_file(argv[2]);
    if (catalog.empty() || stations.empty()) {
      std::fprintf(stderr, "error: empty catalog or station list\n");
      return 2;
    }
    std::vector<groundseg::SatelliteConfig> sats;
    for (const auto& tle : catalog) {
      groundseg::SatelliteConfig sc;
      sc.id = static_cast<int>(sats.size());
      sc.name = tle.name;
      sc.tle = tle;
      sats.push_back(std::move(sc));
    }

    examples::apply_common_flags(flags, static_cast<int>(stations.size()),
                                 &opts);
    if (!tenants.empty()) {
      partition_fleet(static_cast<int>(sats.size()), &tenants);
      opts.tenants = tenants;
    }

    // Each session gets its own registry: a restore builds the new session
    // over a fresh one and swaps both in only once it succeeded.
    auto registry = std::make_unique<obs::Registry>();
    opts.metrics = registry.get();
    std::ofstream events_file;
    obs::EventLog event_log;
    if (!flags.events_out.empty()) {
      events_file.open(flags.events_out);
      event_log = obs::EventLog(&events_file);
      opts.events = &event_log;
    }

    weather::SyntheticWeatherProvider wx(42, opts.start,
                                         opts.duration_hours + 1.0);
    std::unique_ptr<core::Session> session;
    if (!restore_path.empty()) {
      std::ifstream in(restore_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n",
                     restore_path.c_str());
        return 2;
      }
      session = core::Session::restore(in, sats, stations, &wx, opts);
    } else {
      session = std::make_unique<core::Session>(sats, stations, &wx, opts);
    }
    std::printf("ready step=%lld/%lld tenants=%zu\n",
                static_cast<long long>(session->step_index()),
                static_cast<long long>(session->num_steps()),
                opts.tenants.size());
    std::fflush(stdout);

    const auto advanced = [&](std::int64_t done) {
      std::printf("ok step=%lld/%lld advanced=%lld\n",
                  static_cast<long long>(session->step_index()),
                  static_cast<long long>(session->num_steps()),
                  static_cast<long long>(done));
    };
    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream cmd(line);
      std::string verb, arg, extra;
      cmd >> verb >> arg >> extra;
      if (verb.empty()) continue;
      std::int64_t n = 1;
      double hours = 0.0;
      if (!extra.empty()) {
        std::printf("error %s: unexpected argument '%s'\n", verb.c_str(),
                    extra.c_str());
      } else if (verb == "quit") {
        break;
      } else if (verb == "step") {
        if (arg.empty() ||
            util::parse_number<std::int64_t>(
                arg, 0, std::numeric_limits<std::int64_t>::max(), &n)) {
          std::int64_t done = 0;
          for (; done < n && !session->done(); ++done) session->step();
          advanced(done);
        } else {
          std::printf("error step=%s: want an integer >= 0\n", arg.c_str());
        }
      } else if (verb == "advance") {
        if (examples::parse_hours(arg, &hours)) {
          advanced(session->run_until_hours(hours));
        } else {
          std::printf("error advance=%s: want hours >= 0\n", arg.c_str());
        }
      } else if (verb == "checkpoint" && !arg.empty()) {
        std::ofstream out(arg, std::ios::binary);
        if (out) session->snapshot(out);
        std::printf(out.good() ? "ok checkpoint=%s\n"
                               : "error checkpoint=%s\n",
                    arg.c_str());
      } else if (verb == "restore" && !arg.empty()) {
        std::ifstream in(arg, std::ios::binary);
        if (!in) {
          std::printf("error restore=%s: cannot read the file\n",
                      arg.c_str());
        } else {
          auto fresh = std::make_unique<obs::Registry>();
          core::SimulationOptions restore_opts = opts;
          restore_opts.metrics = fresh.get();
          try {
            session = core::Session::restore(in, sats, stations, &wx,
                                             restore_opts);
            registry = std::move(fresh);
            opts.metrics = registry.get();
            std::printf("ok step=%lld/%lld restored=%s\n",
                        static_cast<long long>(session->step_index()),
                        static_cast<long long>(session->num_steps()),
                        arg.c_str());
          } catch (const std::exception& e) {
            std::printf("error restore=%s: %s\n", arg.c_str(), e.what());
          }
        }
      } else if (verb == "report" && !arg.empty()) {
        const core::SimulationResult r = session->report();
        const bool ok = with_output(
            arg, [&](std::ostream& out) { core::write_summary_json(out, r); });
        std::printf(ok ? "ok report=%s\n" : "error report=%s\n", arg.c_str());
      } else if (verb == "metrics" && !arg.empty()) {
        const bool ok = with_output(arg, [&](std::ostream& out) {
          registry->write_prometheus(out);
        });
        std::printf(ok ? "ok metrics=%s\n" : "error metrics=%s\n",
                    arg.c_str());
      } else {
        std::printf("error unknown command: %s\n", verb.c_str());
      }
      std::fflush(stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
