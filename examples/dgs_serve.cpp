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
// protocol on stdin; every response line goes to stdout, errors to
// stderr.  Commands:
//
//   step [n]             advance n quanta (default 1)
//   advance <hours>      step until the sim clock reaches <hours>
//   checkpoint <file>    write a dgs.checkpoint.v2 snapshot
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
// either side.  Checkpoints of the older v1 format are rejected.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <functional>
#include <iostream>
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
               "checkpoints are dgs.checkpoint.v2; v1 files are rejected\n",
               examples::common_flags_usage());
  return 2;
}

// "<name>:<weight>" -> TenantSpec with no satellites yet.
bool parse_tenant(const char* arg, core::TenantSpec* spec) {
  const char* colon = std::strchr(arg, ':');
  if (colon == nullptr || colon == arg) return false;
  spec->name.assign(arg, colon - arg);
  char* end = nullptr;
  spec->weight = std::strtod(colon + 1, &end);
  return end != nullptr && *end == '\0' && spec->weight > 0.0;
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
    } else {
      opts.duration_hours = std::atof(argv[i]);
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

    obs::Registry registry;
    opts.metrics = &registry;
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

    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream cmd(line);
      std::string verb, arg;
      cmd >> verb >> arg;
      if (verb.empty()) continue;
      if (verb == "quit") break;
      if (verb == "step") {
        std::int64_t n = arg.empty() ? 1 : std::atoll(arg.c_str());
        std::int64_t done = 0;
        for (; done < n && !session->done(); ++done) session->step();
        std::printf("ok step=%lld/%lld advanced=%lld\n",
                    static_cast<long long>(session->step_index()),
                    static_cast<long long>(session->num_steps()),
                    static_cast<long long>(done));
      } else if (verb == "advance") {
        const std::int64_t done = session->run_until_hours(
            std::atof(arg.c_str()));
        std::printf("ok step=%lld/%lld advanced=%lld\n",
                    static_cast<long long>(session->step_index()),
                    static_cast<long long>(session->num_steps()),
                    static_cast<long long>(done));
      } else if (verb == "checkpoint" && !arg.empty()) {
        std::ofstream out(arg, std::ios::binary);
        if (out) session->snapshot(out);
        std::printf(out.good() ? "ok checkpoint=%s\n"
                               : "error checkpoint=%s\n",
                    arg.c_str());
      } else if (verb == "restore" && !arg.empty()) {
        std::ifstream in(arg, std::ios::binary);
        if (in) {
          session = core::Session::restore(in, sats, stations, &wx, opts);
          std::printf("ok step=%lld/%lld restored=%s\n",
                      static_cast<long long>(session->step_index()),
                      static_cast<long long>(session->num_steps()),
                      arg.c_str());
        } else {
          std::printf("error restore=%s\n", arg.c_str());
        }
      } else if (verb == "report" && !arg.empty()) {
        const core::SimulationResult r = session->report();
        const bool ok = with_output(
            arg, [&](std::ostream& out) { core::write_summary_json(out, r); });
        std::printf(ok ? "ok report=%s\n" : "error report=%s\n", arg.c_str());
      } else if (verb == "metrics" && !arg.empty()) {
        const bool ok = with_output(arg, [&](std::ostream& out) {
          registry.write_prometheus(out);
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
