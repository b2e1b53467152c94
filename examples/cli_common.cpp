#include "examples/cli_common.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/faults/profiles.h"
#include "src/groundseg/io.h"

namespace dgs::examples {

bool parse_hours(const std::string& text, double* hours) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v) || v < 0.0) return false;
  *hours = v;
  return true;
}

const char* flag_value(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) return nullptr;
  return argv[++*i];
}

bool parse_common_flag(int argc, char** argv, int* i, CommonFlags* flags) {
  const char* arg = argv[*i];
  const char* v = nullptr;
  if (std::strcmp(arg, "--threads") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->threads = std::atoi(v);
    return true;
  }
  if (std::strcmp(arg, "--fault-profile") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->fault_profile = v;
    return true;
  }
  if (std::strcmp(arg, "--fault-seed") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->fault_seed = std::strtoull(v, nullptr, 10);
    return true;
  }
  if (std::strcmp(arg, "--stations-subset") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->stations_subset = v;
    return true;
  }
  if (std::strcmp(arg, "--json") == 0 && (v = flag_value(argc, argv, i))) {
    flags->json_out = v;
    return true;
  }
  if (std::strcmp(arg, "--csv") == 0 && (v = flag_value(argc, argv, i))) {
    flags->csv_out = v;
    return true;
  }
  if (std::strcmp(arg, "--metrics-out") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->metrics_out = v;
    return true;
  }
  if (std::strcmp(arg, "--events-out") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->events_out = v;
    return true;
  }
  if (std::strcmp(arg, "--trace-out") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->trace_out = v;
    return true;
  }
  return false;
}

const char* common_flags_usage() {
  return "  [--threads <n>] [--stations-subset <file>]\n"
         "  [--fault-profile <name>] [--fault-seed <n>]\n"
         "  [--json <file>] [--csv <file>] [--metrics-out <file>]\n"
         "  [--events-out <file>] [--trace-out <file>]\n";
}

int apply_common_flags(const CommonFlags& flags, int num_stations,
                       core::SimulationOptions* opts) {
  opts->parallel.num_threads = flags.threads;
  // Replay on an explicit subset (the netdesign interchange format):
  // everything downstream of validation — fault-plan station indices
  // included — refers to the filtered station list.
  if (!flags.stations_subset.empty()) {
    opts->station_subset =
        groundseg::load_station_subset(flags.stations_subset);
  }
  const int effective = opts->station_subset.empty()
                            ? num_stations
                            : static_cast<int>(opts->station_subset.size());
  opts->faults =
      faults::make_profile(flags.fault_profile, flags.fault_seed, effective);
  // The brownout channels need a modelled backhaul to degrade.
  if (opts->faults.has_backhaul_faults()) {
    opts->station_backhaul_bps = 50e6;
  }
  return effective;
}

}  // namespace dgs::examples
