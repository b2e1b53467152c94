// dgs_campaign — Monte-Carlo campaign front end (DESIGN.md §12).
//
//   dgs_campaign [--profile <name>] [--samples <n>] [--workers <n>]
//                [--seed <n>] [--hours <h>] [--sats <n>] [--stations <n>]
//                [--out <dir>] [--no-metrics] [--no-events]
//   dgs_campaign validate <dir>
//
// The first form runs (or resumes) a campaign: N seeded fault scenarios
// sharded across worker processes, per-sample artifacts under
// <dir>/samples/, and an aggregate JSON with mean / p50 / p99 and 95%
// confidence intervals per metric.  Rerunning the same command resumes
// from the manifest, recomputing only samples whose artifacts are missing
// or invalid; the final aggregate is byte-identical either way.
//
// The second form revalidates a campaign directory against the
// run-artifact schema (manifest, every sample summary and event log, the
// aggregate) and exits nonzero on the first violation.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>

#include "examples/cli_common.h"
#include "src/campaign/campaign.h"
#include "src/faults/profiles.h"

namespace {

using namespace dgs;

// The counts take any int here: CampaignOptions::validate() names the
// field of one out of its range.  Each worker is a process.
constexpr int kMinInt = std::numeric_limits<int>::min();
constexpr int kMaxWorkers = 256;

int usage() {
  std::fprintf(stderr,
               "usage: dgs_campaign [--profile <%s>]\n"
               "                    [--samples <n>] [--workers <n>] "
               "[--seed <n>]\n"
               "                    [--hours <h>] [--sats <n>] "
               "[--stations <n>]\n"
               "                    [--out <dir>] [--no-metrics] "
               "[--no-events]\n"
               "       dgs_campaign validate <dir>\n",
               faults::profile_names());
  return 2;
}

int cmd_validate(const char* dir) {
  if (const auto e = campaign::validate_campaign_dir(dir)) {
    std::fprintf(stderr, "invalid: %s: %s\n", e->where.c_str(),
                 e->message.c_str());
    return 1;
  }
  std::printf("%s honours run-artifact schema v%d\n", dir,
              core::kRunArtifactSchemaVersion);
  return 0;
}

int cmd_run(int argc, char** argv) {
  campaign::CampaignOptions opts;
  opts.workers = 4;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return examples::flag_value(argc, argv, &i);
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--profile") == 0 && (v = next())) {
      opts.profile = v;
    } else if (std::strcmp(argv[i], "--samples") == 0 && (v = next())) {
      opts.samples = examples::number_arg("--samples", v, kMinInt);
    } else if (std::strcmp(argv[i], "--workers") == 0 && (v = next())) {
      opts.workers = examples::number_arg("--workers", v, 0, kMaxWorkers);
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      opts.campaign_seed = examples::number_arg<std::uint64_t>("--seed", v, 0);
    } else if (std::strcmp(argv[i], "--hours") == 0 && (v = next())) {
      if (!examples::parse_hours(v, &opts.duration_hours)) {
        std::fprintf(stderr,
                     "error: CampaignOptions.duration_hours: bad --hours "
                     "\"%s\" (want a finite number >= 0)\n",
                     v);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sats") == 0 && (v = next())) {
      opts.num_satellites = examples::number_arg("--sats", v, kMinInt);
    } else if (std::strcmp(argv[i], "--stations") == 0 && (v = next())) {
      opts.num_stations = examples::number_arg("--stations", v, kMinInt);
    } else if (std::strcmp(argv[i], "--out") == 0 && (v = next())) {
      opts.out_dir = v;
    } else if (std::strcmp(argv[i], "--no-metrics") == 0) {
      opts.write_metrics = false;
    } else if (std::strcmp(argv[i], "--no-events") == 0) {
      opts.write_events = false;
    } else {
      return usage();
    }
  }
  if (const auto e = opts.validate()) {
    std::fprintf(stderr, "error: CampaignOptions.%s: %s\n",
                 e->field.c_str(), e->message.c_str());
    return 2;
  }

  const campaign::CampaignResult r =
      campaign::run_campaign(opts, &std::cout);

  std::printf("\n%-24s %12s %10s %12s %12s  n\n", "metric", "mean",
              "ci95", "p50", "p99");
  for (const auto& [name, a] : r.metrics) {
    std::printf("%-24s %12.3f \xc2\xb1%9.3f %12.3f %12.3f %3lld\n",
                name.c_str(), a.mean, a.ci95, a.p50, a.p99,
                static_cast<long long>(a.count));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "validate") == 0) {
      if (argc != 3) return usage();
      return cmd_validate(argv[2]);
    }
    return cmd_run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
