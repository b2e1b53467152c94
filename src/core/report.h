// Run reports: machine-readable artifacts of a simulation.
//
// The evaluation harness prints human tables; downstream users want the
// raw curves.  This module emits (a) the per-step timeseries a plotting
// pipeline consumes and (b) a JSON summary of the headline metrics.
//
// Both writers emit the versioned run-artifact schema of run_artifact.h
// and live in run_artifact.cpp: write_summary_json iterates the
// summary's field table, the one the validator checks.  Validate with
// the checkers declared there.
#pragma once

#include <iosfwd>

#include "src/core/simulator.h"

namespace dgs::core {

/// CSV: hours,delivered_tb_cum,backlog_gb_total,active_links,
///      failed_links_cum.  Requires SimulationOptions::collect_timeseries.
void write_timeseries_csv(std::ostream& out, const SimulationResult& result);

/// JSON object with the headline metrics (latency/backlog percentiles,
/// totals, utilization, per-tenant rows) plus the leading schema_version
/// key: the rows of run_artifact.cpp's summary table, in order.
void write_summary_json(std::ostream& out, const SimulationResult& result);

}  // namespace dgs::core
