// Shared command-line flag handling for the dgs_* front ends (dgs_cli,
// dgs_campaign, dgs_netdesign, dgs_serve).
//
// Each binary keeps its own subcommand and positional parsing; the flags
// every front end repeats — threading, fault injection, station subsets,
// artifact output paths — live here so spellings and semantics cannot
// drift between tools.  A binary opts in per flag: parse_common_flag()
// consumes only the shared spellings and leaves everything else to the
// caller's own loop.
#ifndef DGS_EXAMPLES_CLI_COMMON_H_
#define DGS_EXAMPLES_CLI_COMMON_H_

#include <cstdint>
#include <limits>
#include <string>

#include "src/core/simulator.h"
#include "src/util/parse.h"

namespace dgs::examples {

/// Values of the shared flags, pre-filled with their defaults.
struct CommonFlags {
  int threads = 1;                     ///< --threads <n>
  std::string fault_profile = "none";  ///< --fault-profile <name>
  std::uint64_t fault_seed = 1;        ///< --fault-seed <n>
  std::string stations_subset;         ///< --stations-subset <file>
  std::string json_out;                ///< --json <file>
  std::string csv_out;                 ///< --csv <file>
  std::string metrics_out;             ///< --metrics-out <file>
  std::string events_out;              ///< --events-out <file>
  std::string trace_out;               ///< --trace-out <file>
};

/// Whole-text, range-checked number parsing (src/util/parse.h).
using util::parse_number;

/// The value of command-line argument `name` (a flag or a positional),
/// read whole by parse_number.  Anything else prints
/// "error: bad <name> "<text>" (want ...)", stating the range, and exits
/// 2.  Defined for int, std::uint64_t and double.
template <class T>
T number_arg(const char* name, const char* text, T min,
             T max = std::numeric_limits<T>::max());

/// Parses all of `text` as a finite number of hours >= 0 into *hours.
/// Returns false, leaving *hours unchanged, for anything else ("5abc",
/// "inf", "").
bool parse_hours(const std::string& text, double* hours);

/// Returns argv[*i + 1] and advances *i when a value is present, else
/// nullptr.  The building block for "--flag <value>" parsing.
const char* flag_value(int argc, char** argv, int* i);

/// Consumes argv[*i] if it spells one of the shared flags, advancing *i
/// past the flag's value.  Returns true when consumed.
bool parse_common_flag(int argc, char** argv, int* i, CommonFlags* flags);

/// Usage fragment listing the shared flags, one per indented line.
const char* common_flags_usage();

/// Applies the shared flags to SimulationOptions: thread count, the
/// station subset (loaded from --stations-subset), and the fault profile
/// instantiated against the effective (post-subset) station count, with
/// the modelled backhaul enabled when the profile degrades it.  Returns
/// the effective station count.  Throws on an unknown profile name or an
/// unreadable subset file.
int apply_common_flags(const CommonFlags& flags, int num_stations,
                       core::SimulationOptions* opts);

}  // namespace dgs::examples

#endif  // DGS_EXAMPLES_CLI_COMMON_H_
