#include "examples/cli_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <type_traits>

#include "src/faults/profiles.h"
#include "src/groundseg/io.h"

namespace dgs::examples {

template <class T>
T number_arg(const char* name, const char* text, T min, T max) {
  T v{};
  if (parse_number(text, min, max, &v)) return v;
  std::ostringstream want;
  want << (std::is_integral_v<T> ? "an integer" : "a finite number");
  if (max == std::numeric_limits<T>::max()) {
    want << " >= " << min;
  } else {
    want << " in [" << min << ", " << max << "]";
  }
  std::fprintf(stderr, "error: bad %s \"%s\" (want %s)\n", name, text,
               want.str().c_str());
  std::exit(2);
}

template int number_arg(const char*, const char*, int, int);
template std::uint64_t number_arg(const char*, const char*, std::uint64_t,
                                  std::uint64_t);
template double number_arg(const char*, const char*, double, double);

bool parse_hours(const std::string& text, double* hours) {
  return parse_number(text, 0.0, std::numeric_limits<double>::max(), hours);
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
    flags->threads = number_arg("--threads", v, 0, util::kMaxThreads);
    return true;
  }
  if (std::strcmp(arg, "--fault-profile") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->fault_profile = v;
    return true;
  }
  if (std::strcmp(arg, "--fault-seed") == 0 &&
      (v = flag_value(argc, argv, i))) {
    flags->fault_seed = number_arg<std::uint64_t>("--fault-seed", v, 0);
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
