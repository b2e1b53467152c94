// Umbrella header: the full DGS public API.
//
// DGS — a distributed and hybrid ground station network for LEO satellites
// (Vasisht & Chandra, HotNets '20).  Typical usage:
//
//   auto stations = dgs::groundseg::generate_dgs_stations(net_opts);
//   auto sats     = dgs::groundseg::generate_constellation(net_opts, epoch);
//   dgs::weather::SyntheticWeatherProvider wx(seed, epoch, 24.0);
//   dgs::core::SimulationOptions sim_opts{.start = epoch};
//   dgs::core::Session session(sats, stations, &wx, sim_opts);
//   auto result = session.run_to_end();  // or step() / report() mid-run
//   std::cout << dgs::util::summary_row(result.latency_minutes, "min");
#pragma once

#include "src/backend/backhaul.h"    // IWYU pragma: export
#include "src/backend/station_edge.h"   // IWYU pragma: export
#include "src/core/agenda.h"         // IWYU pragma: export
#include "src/core/data_queue.h"     // IWYU pragma: export
#include "src/core/lookahead.h"      // IWYU pragma: export
#include "src/core/market.h"         // IWYU pragma: export
#include "src/core/matching.h"       // IWYU pragma: export
#include "src/core/plan.h"           // IWYU pragma: export
#include "src/core/report.h"         // IWYU pragma: export
#include "src/core/scheduler.h"      // IWYU pragma: export
#include "src/core/session.h"        // IWYU pragma: export
#include "src/core/simulator.h"      // IWYU pragma: export
#include "src/core/value.h"          // IWYU pragma: export
#include "src/core/visibility.h"     // IWYU pragma: export
#include "src/faults/fault_plan.h"   // IWYU pragma: export
#include "src/faults/profiles.h"     // IWYU pragma: export
#include "src/groundseg/io.h"        // IWYU pragma: export
#include "src/groundseg/network_gen.h"  // IWYU pragma: export
#include "src/link/budget.h"         // IWYU pragma: export
#include "src/link/dvbs2_framing.h"  // IWYU pragma: export
#include "src/link/ttc.h"            // IWYU pragma: export
#include "src/orbit/passes.h"        // IWYU pragma: export
#include "src/util/angles.h"         // IWYU pragma: export
#include "src/util/stats.h"          // IWYU pragma: export
#include "src/weather/synthetic.h"   // IWYU pragma: export
