#include "src/core/session.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/checkpoint.h"
#include "src/link/dvbs2_framing.h"
#include "src/obs/trace.h"
#include "src/util/angles.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace dgs::core {

namespace {

/// Canonical byte encoding of every option that shapes the simulated
/// trajectory (see Session::options_crc32 for the exclusion list).
void put_options(BinaryWriter& w, const SimulationOptions& o) {
  util::Epoch start = o.start;
  w.obj(start);
  w.f64(o.duration_hours);
  w.f64(o.step_seconds);
  w.u8(static_cast<std::uint8_t>(o.matcher));
  w.u8(static_cast<std::uint8_t>(o.value));
  w.u8(o.weather_aware ? 1 : 0);
  w.u8(o.couple_forecast_to_plan_upload ? 1 : 0);
  w.f64(o.initial_backlog_bytes);
  w.f64(o.initial_backlog_age_hours);
  w.f64(o.urgent_fraction);
  w.f64(o.urgent_priority);
  w.f64(o.lookahead_hours);
  w.f64(o.station_backhaul_bps);
  w.f64(o.slew_seconds);
  w.u8(o.collect_timeseries ? 1 : 0);
  w.u64(o.faults.seed);
  w.u64(o.faults.outages.size());
  for (const faults::OutageWindow& ow : o.faults.outages) {
    w.i32(ow.station_index);
    w.f64(ow.start_hours);
    w.f64(ow.end_hours);
  }
  w.f64(o.faults.churn.mtbf_hours);
  w.f64(o.faults.churn.mttr_hours);
  w.f64(o.faults.churn.station_fraction);
  w.u64(o.faults.backhaul.size());
  for (const faults::BackhaulFault& bf : o.faults.backhaul) {
    w.i32(bf.station_index);
    w.f64(bf.start_hours);
    w.f64(bf.end_hours);
    w.f64(bf.rate_multiplier);
  }
  w.f64(o.faults.ack_relay.loss_probability);
  w.f64(o.faults.ack_relay.initial_backoff_s);
  w.f64(o.faults.ack_relay.backoff_multiplier);
  w.f64(o.faults.ack_relay.max_backoff_s);
  w.i32(o.faults.ack_relay.max_attempts);
  w.f64(o.faults.plan_upload.failure_probability);
  w.u64(o.station_subset.size());
  for (const int id : o.station_subset) w.i32(id);
  w.u64(o.tenants.size());
  for (const TenantSpec& t : o.tenants) {
    w.str(t.name);
    w.f64(t.weight);
    w.f64(t.sla_latency_minutes);
    w.u64(t.satellites.size());
    for (const int s : t.satellites) w.i32(s);
  }
  // Appended only when set, so every run without bids keeps its CRC.
  if (!o.value_scale.empty()) {
    w.u64(o.value_scale.size());
    for (const double m : o.value_scale) w.f64(m);
  }
}

}  // namespace

Session::Session(std::vector<groundseg::SatelliteConfig> sats,
                 std::vector<groundseg::GroundStation> stations,
                 const weather::WeatherProvider* actual_weather,
                 const SimulationOptions& opts)
    : Session(std::move(sats), std::move(stations), actual_weather, opts,
              /*publish=*/true) {}

Session::Session(std::vector<groundseg::SatelliteConfig> sats,
                 std::vector<groundseg::GroundStation> stations,
                 const weather::WeatherProvider* actual_weather,
                 const SimulationOptions& opts, bool publish)
    : sats_(std::move(sats)), stations_(std::move(stations)),
      actual_wx_(actual_weather), opts_(opts),
      clock_(opts.start, opts.step_seconds) {
  // Apply the station-subset restriction before anything else: the
  // visibility engine, fault-plan indices and metrics see only the
  // filtered list, in input order.
  stations_ = select_stations(std::move(stations_), opts_,
                              static_cast<int>(sats_.size()));

  num_sats_ = static_cast<int>(sats_.size());
  num_stations_ = static_cast<int>(stations_.size());
  dt_ = opts_.step_seconds;
  backlog_epoch_ =
      opts_.start.plus_seconds(-opts_.initial_backlog_age_hours * 3600.0);
  steps_ = static_cast<std::int64_t>(
      std::llround(opts_.duration_hours * 3600.0 / dt_));
  events_ = opts_.events;

  // Scheduling sees forecasts; outcomes use the actual field.
  const weather::WeatherProvider* forecast_wx =
      opts_.weather_aware ? actual_wx_ : nullptr;
  pool_ = std::make_unique<util::ThreadPool>(opts_.parallel);
  engine_ = std::make_unique<VisibilityEngine>(sats_, stations_,
                                               forecast_wx);
  engine_->set_thread_pool(pool_.get());
  // Must precede Scheduler construction: the scheduler registers its
  // counters against the engine's registry at setup time.
  engine_->set_metrics(opts_.metrics);
  if (!opts_.tenants.empty()) {
    arbiter_.emplace(opts_.tenants, num_sats_);
  }
  SchedulerConfig sched_cfg;
  sched_cfg.matcher = opts_.matcher;
  sched_cfg.value = opts_.value;
  sched_cfg.quantum_seconds = dt_;
  if (arbiter_.has_value()) {
    sched_cfg.sat_value_scale = &arbiter_->sat_scale();
  }
  if (!opts_.value_scale.empty()) {
    sched_cfg.value_scale = &opts_.value_scale;
  }
  scheduler_ = std::make_unique<Scheduler>(engine_.get(), sched_cfg);

  res_.per_satellite.resize(num_sats_);

  // Fault injection (DESIGN.md §11): the plan is expanded onto the step
  // grid once, on the driver thread; all later queries are pure lookups or
  // stateless hash draws, so fault behaviour is bit-identical at any
  // thread count.
  if (!opts_.faults.empty()) {
    timeline_.emplace(opts_.faults, num_stations_, steps_, dt_);
  }
  station_faults_ =
      timeline_.has_value() && timeline_->has_station_faults();
  backhaul_faults_ =
      timeline_.has_value() && timeline_->has_backhaul_faults();

  // The families with no other ledger (DESIGN.md §10), updated where their
  // events happen on the driver thread; publish_metrics() registers the
  // rest.
  if (obs::Registry* const metrics = opts_.metrics; metrics != nullptr) {
    live_.backhaul_received = metrics->counter(
        "dgs_backhaul_received_bytes_total",
        "Bytes queued at station edges from the downlink");
    live_.backhaul_uploaded = metrics->counter(
        "dgs_backhaul_uploaded_bytes_total",
        "Bytes uploaded from station edges to the cloud");
    live_.latency_minutes = metrics->histogram(
        "dgs_sim_latency_minutes", "Capture-to-ground latency per chunk",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0});
    // Fault families exist only while a fault plan is active, so
    // fault-free runs keep their exposition unchanged.
    if (timeline_.has_value()) {
      live_.outage_transitions = metrics->counter(
          "dgs_faults_outage_transitions_total",
          "Station up->down and down->up transitions");
      live_.backhaul_degraded_steps = metrics->counter(
          "dgs_faults_backhaul_degraded_station_steps_total",
          "Station-steps spent with a degraded backhaul multiplier");
    }
  }

  prev_down_.assign(static_cast<std::size_t>(num_stations_), 0);
  if (station_faults_) {
    down_.assign(static_cast<std::size_t>(num_stations_), 0);
  }
  if (backhaul_faults_) {
    prev_backhaul_mult_.assign(static_cast<std::size_t>(num_stations_),
                               1.0);
  }

  queues_.resize(static_cast<std::size_t>(num_sats_));
  for (int s = 0; s < num_sats_; ++s) {
    if (sats_[s].storage_capacity_bytes > 0.0) {
      queues_[s].set_capacity(sats_[s].storage_capacity_bytes);
    }
  }
  last_plan_.assign(static_cast<std::size_t>(num_sats_), opts_.start);
  leads_.assign(static_cast<std::size_t>(num_sats_), 0.0);
  prev_served_.assign(static_cast<std::size_t>(num_stations_), -1);
  open_contacts_.resize(static_cast<std::size_t>(num_sats_));

  // Steady-state warm start: pre-existing backlog captured in the past.
  if (opts_.initial_backlog_bytes > 0.0) {
    for (int s = 0; s < num_sats_; ++s) {
      queues_[s].generate(opts_.initial_backlog_bytes, backlog_epoch_);
      res_.per_satellite[s].generated_bytes += opts_.initial_backlog_bytes;
      res_.total_generated_bytes += opts_.initial_backlog_bytes;
    }
  }

  // Station edge queues (opts_.station_backhaul_bps > 0).
  if (opts_.station_backhaul_bps > 0.0) {
    edge_queues_.assign(
        static_cast<std::size_t>(num_stations_),
        backend::StationEdgeQueue(opts_.station_backhaul_bps));
    for (backend::StationEdgeQueue& eq : edge_queues_) {
      eq.set_metrics(live_.backhaul_received, live_.backhaul_uploaded);
    }
  }

  // Look-ahead planning state (opts_.lookahead_hours > 0).
  plan_window_steps_ =
      opts_.lookahead_hours > 0.0
          ? std::max(1, static_cast<int>(std::llround(
                            opts_.lookahead_hours * 3600.0 / dt_)))
          : 0;
  if (plan_window_steps_ > 0) {
    plan_geometry_ = PlanGeometry(plan_window_steps_);
  }
  if (publish) publish_metrics();
}

double Session::station_queued_bytes() const {
  double queued = 0.0;
  for (const backend::StationEdgeQueue& eq : edge_queues_) {
    queued += eq.queued_bytes();
  }
  return queued;
}

double Session::realized_rate_bps(const ContactEdge& e,
                                  const util::Epoch& when) const {
  const groundseg::GroundStation& gs = stations_[e.station];
  weather::WeatherSample wx;
  if (actual_wx_ != nullptr) {
    wx = actual_wx_->actual(gs.location.latitude_rad,
                            gs.location.longitude_rad, when);
  }
  // The satellite transmits at the *scheduled* MODCOD (receive-only
  // stations cannot request a change mid-pass).  The transfer succeeds iff
  // the actual Es/N0 still meets that MODCOD's requirement; the budget is
  // the scheduler's own, evaluated under the actual weather.
  const link::LinkBudget actual =
      engine_->link_budget(e.sat, e.station, e.range_km, e.elevation_rad, wx);
  if (e.modcod == nullptr) return 0.0;
  if (actual.esn0_db < e.modcod->required_esn0_db) return 0.0;
  return link::bitrate_bps(*e.modcod, sats_[e.sat].radio.symbol_rate_hz) *
         sats_[e.sat].radio.channels;
}

util::Epoch Session::start_epoch(std::int64_t c) const {
  return c == -1 ? backlog_epoch_ : clock_.step_start(c);
}

std::int64_t Session::capture_step(const util::Epoch& capture) const {
  if (opts_.initial_backlog_bytes > 0.0 &&
      capture.bits() == backlog_epoch_.bits()) {
    return -1;
  }
  return std::llround(capture.seconds_since(opts_.start) / dt_);
}

util::Epoch Session::upload_epoch(std::int64_t step) const {
  return clock_.step_start(step).plus_seconds(dt_);
}

void Session::record_delay(StepAges& ledger, std::int64_t c,
                           const util::Epoch& end, double minutes) {
  ledger.add(static_cast<std::uint32_t>(step_ - c));
  // Exactness audit: report() rebuilds this entry's minutes from its two
  // steps; a start epoch off the step grid would surface here.
  DGS_DCHECK(end.seconds_since(start_epoch(c)) / 60.0 == minutes,
             "step " << step_ << ": a delay of " << minutes
                     << " min from step " << c
                     << " is not rebuilt bit for bit");
}

void Session::step() {
  DGS_ENSURE(!done(), "Session::step past the end of the horizon (step "
                          << step_ << " of " << steps_ << ")");
  DGS_TRACE_SPAN("sim.step");
  const std::int64_t step = step_;
  obs::EventLog* const events = events_;
  // StepClock is the single timestamp source: step_start drives the
  // physics, end_hours stamps both the timeseries record and every event
  // this step emits, so the two artifacts join without drift.
  const util::Epoch now = clock_.step_start(step);
  if (events != nullptr) events->begin_step(step, clock_.end_hours(step));
  delivered_.begin_step();
  cloud_.begin_step();
  acks_.begin_step();

  // 0. Fault state for this step: refresh the station down mask and
  // emit up/down transitions.  `new_outage` feeds the look-ahead
  // replan check below.
  bool new_outage = false;
  if (station_faults_) {
    timeline_->fill_station_down(step, &down_);
    for (int g = 0; g < num_stations_; ++g) {
      if (down_[g] != 0 && prev_down_[g] == 0) {
        new_outage = true;
        if (events != nullptr) events->outage_begin(g);
        if (live_.outage_transitions != nullptr) {
          live_.outage_transitions->inc();
        }
      } else if (down_[g] == 0 && prev_down_[g] != 0) {
        if (events != nullptr) events->outage_end(g);
        if (live_.outage_transitions != nullptr) {
          live_.outage_transitions->inc();
        }
      }
    }
    prev_down_.assign(down_.begin(), down_.end());
  }
  const std::span<const char> down_span =
      station_faults_ ? std::span<const char>(down_)
                      : std::span<const char>();

  // 1. Imaging: continuous data generation, one chunk per step (two when
  // an urgent tier is configured).
  {
    DGS_TRACE_SPAN("sim.generate");
    for (int s = 0; s < num_sats_; ++s) {
      const double bytes =
          sats_[s].data_generation_bytes_per_day * dt_ / 86400.0;
      const double urgent = bytes * opts_.urgent_fraction;
      if (urgent > 0.0) {
        queues_[s].generate(urgent, now, opts_.urgent_priority);
      }
      queues_[s].generate(bytes - urgent, now);
      res_.per_satellite[s].generated_bytes += bytes;
      res_.total_generated_bytes += bytes;
    }
  }

  // 2. Plan staleness per satellite.
  if (opts_.couple_forecast_to_plan_upload) {
    for (int s = 0; s < num_sats_; ++s) {
      leads_[s] = now.seconds_since(last_plan_[s]);
    }
  }  // else all-zero: always-fresh plans.

  // 3. Schedule this instant: either per-instant matching (with failure
  // injection applied) or the pre-computed look-ahead horizon plan.
  std::vector<ContactEdge> assigned;
  {
    DGS_TRACE_SPAN("sim.schedule");
    if (plan_window_steps_ > 0) {
      const bool refresh =
          plan_origin_ < 0 || step - plan_origin_ >= plan_window_steps_;
      if (refresh) {
        const int window = static_cast<int>(
            std::min<std::int64_t>(plan_window_steps_, steps_ - step));
        plan_ = plan_horizon(*engine_, queues_,
                             scheduler_->value_function(), now, window, dt_,
                             down_span, &plan_geometry_);
        plan_origin_ = step;
      }
      assigned = plan_.per_step[step - plan_origin_];
      // Replan-on-failure: a station that just went down while the
      // remainder of this window still assigns it invalidates the plan.
      // This step executes the stale assignments (in-flight
      // transmissions into the dead station are lost below); the
      // horizon from the next step is re-scored with the down mask.
      if (!refresh && new_outage && step + 1 < steps_) {
        int faulted_station = -1;
        const auto rel = static_cast<std::size_t>(step - plan_origin_);
        for (std::size_t k = rel;
             k < plan_.per_step.size() && faulted_station < 0; ++k) {
          for (const ContactEdge& e : plan_.per_step[k]) {
            if (down_[e.station] != 0) {
              faulted_station = e.station;
              break;
            }
          }
        }
        if (faulted_station >= 0) {
          const int window = static_cast<int>(std::min<std::int64_t>(
              plan_window_steps_, steps_ - (step + 1)));
          plan_ = plan_horizon(*engine_, queues_,
                               scheduler_->value_function(),
                               clock_.step_start(step + 1), window, dt_,
                               down_span, &plan_geometry_);
          plan_origin_ = step + 1;
          res_.replans += 1;
          if (events != nullptr) {
            events->replan(faulted_station, window);
          }
        }
      }
    } else {
      // Tenant fair share: refresh each tenant's deficit multiplier from
      // the cumulative delivered books before scoring this instant's
      // edges (driver thread; deterministic, DESIGN.md §16).
      if (arbiter_.has_value()) arbiter_->refresh_scales();
      assigned = scheduler_->schedule_instant(now, queues_, leads_,
                                              down_span);
    }
  }

  // 4. Execute the assignments against actual weather.  The satellite
  // always transmits at the scheduled MODCOD and rate (receive-only
  // stations cannot renegotiate); whether the ground captures it depends
  // on the actual Es/N0.
  double step_edge_received = 0.0;
  {
    DGS_TRACE_SPAN("sim.execute");
    for (const ContactEdge& e : assigned) {
      res_.assignments += 1;
      res_.total_matched_value += e.weight;
      if (arbiter_.has_value()) arbiter_->record_assignment(e.sat);

      // Contact lifecycle: a pair entering the assigned set opens a
      // contact; a MODCOD change mid-pass is a reselection.  Tracked with
      // or without an event log, so a checkpoint carries it either way.
      std::vector<OpenContact>& contacts = open_contacts_[e.sat];
      auto oc = std::ranges::lower_bound(contacts, e.station, {},
                                         &OpenContact::station);
      const bool opened = oc == contacts.end() || oc->station != e.station;
      if (opened) oc = contacts.insert(oc, OpenContact{e.station});
      if (events != nullptr) {
        const std::string_view name =
            e.modcod != nullptr ? e.modcod->name : "none";
        if (opened) {
          events->contact_open(e.sat, e.station, name, e.predicted_rate_bps,
                               util::rad2deg(e.elevation_rad));
        } else if (oc->modcod != e.modcod) {
          events->modcod_selected(e.sat, e.station, name,
                                  e.predicted_rate_bps);
        }
      }
      oc->modcod = e.modcod;
      oc->held_steps += 1;
      oc->last_step = step;

      // A faulted station captures nothing: the satellite transmits
      // into the dead contact (it cannot tell), and the bytes take the
      // same missing-pieces requeue path as a mis-predicted MODCOD.
      const bool station_up = !station_faults_ || down_[e.station] == 0;
      const bool received = station_up && realized_rate_bps(e, now) > 0.0;
      // Retargeting the dish costs slew/re-lock time out of the quantum.
      double effective_dt = dt_;
      if (opts_.slew_seconds > 0.0 && prev_served_[e.station] != e.sat) {
        effective_dt = std::max(0.0, dt_ - opts_.slew_seconds);
        res_.slew_events += 1;
      }
      const double link_bytes = e.predicted_rate_bps * effective_dt / 8.0;
      // Ack-relay Internet faults: the station's report upload is lost
      // with some probability and retried with capped exponential
      // backoff, delaying when the batch's verdict reaches the
      // operator (and hence the next TX contact).
      double report_delay_s = 0.0;
      if (received && opts_.faults.has_ack_relay_faults()) {
        const faults::AckRelayOutcome relay =
            timeline_->ack_relay_outcome(step, e.sat, e.station);
        if (relay.retries > 0) {
          report_delay_s = relay.delay_s;
          res_.ack_retries += relay.retries;
          if (events != nullptr) {
            events->ack_relay_retry(e.sat, e.station, relay.retries,
                                    relay.delay_s);
          }
        }
      }
      const double sent = queues_[e.sat].transmit(
          link_bytes, now,
          [&](double latency_s, const DataChunk& chunk) {
            record_delay(delivered_, capture_step(chunk.capture), now,
                         latency_s / 60.0);
            delivered_sat_.push_back(static_cast<std::uint32_t>(e.sat));
            delivered_urgent_.push_back(chunk.priority > 1.0 ? 1 : 0);
            if (live_.latency_minutes != nullptr) {
              live_.latency_minutes->observe(latency_s / 60.0);
            }
            if (!edge_queues_.empty()) {
              edge_queues_[e.station].receive(chunk.total_bytes,
                                              chunk.priority,
                                              chunk.capture, now);
              step_edge_received += chunk.total_bytes;
            }
          },
          received, report_delay_s);
      if (received) {
        res_.assigned_capacity_bytes += link_bytes;
        res_.per_satellite[e.sat].delivered_bytes += sent;
        res_.total_delivered_bytes += sent;
        if (arbiter_.has_value()) arbiter_->record_delivery(e.sat, sent);
      } else {
        res_.failed_assignments += 1;
        res_.wasted_transmission_bytes += sent;
        if (!station_up) {
          res_.outage_lost_bytes += sent;
          if (events != nullptr) {
            events->outage_loss(e.sat, e.station, sent);
          }
        }
      }
      if (events != nullptr) {
        events->bytes_moved(e.sat, e.station, sent, received);
      }

      // Transmit-capable contact: collated report (acks + missing pieces)
      // and a fresh plan upload.  The S-band TT&C uplink is independent
      // of the X-band downlink outcome, so this happens even if the data
      // transfer failed.
      if (stations_[e.station].tx_capable && station_up) {
        // TT&C plan-upload fault: the whole exchange (acks + fresh
        // plan) is lost; the satellite keeps its stale plan until the
        // next TX opportunity.
        if (opts_.faults.has_plan_upload_faults() &&
            timeline_->plan_upload_fails(step, e.sat, e.station)) {
          res_.plan_upload_failures += 1;
          if (events != nullptr) {
            events->plan_upload_failed(e.sat, e.station);
          }
        } else {
          double acked_bytes = 0.0;
          int ack_batches = 0;
          const double requeued = queues_[e.sat].acknowledge_all(
              now, [&](double delay_s, double bytes) {
                record_delay(acks_, step - std::llround(delay_s / dt_), now,
                             delay_s / 60.0);
                acked_bytes += bytes;
                ack_batches += 1;
              });
          res_.requeued_bytes += requeued;
          if (events != nullptr) {
            events->ack_relayed(e.sat, e.station, acked_bytes, requeued,
                                ack_batches);
            events->plan_uploaded(e.sat, e.station,
                                  now.seconds_since(last_plan_[e.sat]));
          }
          last_plan_[e.sat] = now;
          res_.per_satellite[e.sat].tx_contacts += 1;
        }
      }
    }
  }

  // Contacts absent from this step's assigned set have ended.
  close_contacts(step);

  // 4b. Track which satellite each station served (slew accounting).
  if (opts_.slew_seconds > 0.0) {
    std::fill(prev_served_.begin(), prev_served_.end(), -1);
    for (const ContactEdge& e : assigned) prev_served_[e.station] = e.sat;
  }

  // 5. Station backhaul: edge queues upload toward the cloud.
  if (!edge_queues_.empty()) {
    DGS_TRACE_SPAN("sim.backhaul");
    const util::Epoch upload_t = upload_epoch(step);
    double step_uploaded = 0.0;
    std::int64_t degraded_stations = 0;
    for (int g = 0; g < num_stations_; ++g) {
      double mult = 1.0;
      if (backhaul_faults_) {
        mult = timeline_->backhaul_multiplier(g, step);
        if (mult < 1.0) {
          degraded_stations += 1;
          if (events != nullptr && prev_backhaul_mult_[g] >= 1.0) {
            events->backhaul_fault_begin(g, mult);
          }
        } else if (events != nullptr && prev_backhaul_mult_[g] < 1.0) {
          events->backhaul_fault_end(g);
        }
        prev_backhaul_mult_[static_cast<std::size_t>(g)] = mult;
      }
      step_uploaded += edge_queues_[static_cast<std::size_t>(g)].drain(
          dt_, upload_t,
          [&](double latency_s, const backend::EdgeItem& item) {
            record_delay(cloud_, capture_step(item.capture), upload_t,
                         latency_s / 60.0);
          },
          mult);
    }
    if (live_.backhaul_degraded_steps != nullptr && degraded_stations > 0) {
      live_.backhaul_degraded_steps->inc(
          static_cast<double>(degraded_stations));
    }
    if (events != nullptr) {
      events->backhaul_step(step_edge_received, step_uploaded,
                            station_queued_bytes());
    }
  }

  // 6. Storage accounting.
  for (int s = 0; s < num_sats_; ++s) {
    res_.per_satellite[s].storage_high_water_bytes =
        std::max(res_.per_satellite[s].storage_high_water_bytes,
                 queues_[s].storage_bytes());
  }

  // 6b. Conservation audit: every byte a sensor offered must be exactly
  // one of dropped / queued / awaiting ack / freed by an ack.  A silent
  // leak here would corrupt every downstream backlog and latency figure.
#ifdef DGS_ENABLE_DCHECKS
  for (int s = 0; s < num_sats_; ++s) {
    const std::string audit = queues_[s].audit_conservation();
    DGS_CHECK(audit.empty(), "step " << step << ", sat " << s << ": "
                                     << audit);
  }
#endif

  // 7. Timeseries capture (same StepClock as the event log).
  if (opts_.collect_timeseries) {
    StepRecord rec;
    rec.hours = clock_.end_hours(step);
    rec.delivered_bytes_cum = res_.total_delivered_bytes;
    for (int s = 0; s < num_sats_; ++s) {
      rec.backlog_bytes_total += queues_[s].queued_bytes();
    }
    rec.active_links = static_cast<int>(assigned.size());
    rec.failed_cum = res_.failed_assignments;
    res_.timeseries.push_back(rec);
  }

  ++step_;
  if (step_ == steps_) finalize();
  publish_metrics();
}

void Session::close_contacts(std::int64_t step) {
  for (int s = 0; s < num_sats_; ++s) {
    std::erase_if(open_contacts_[s], [&](const OpenContact& c) {
      if (c.last_step == step) return false;
      if (events_ != nullptr) {
        events_->contact_close(s, c.station, c.held_steps);
      }
      return true;
    });
  }
}

void Session::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Contacts still open at horizon end close at the final step's stamp
  // (none is assigned at step steps_).
  close_contacts(steps_);

  // Whole-run conservation: the result's aggregate counters must agree
  // with the queues' lifetime books.  Generated splits into delivered +
  // dropped + still-queued + awaiting-ack, with failed transmissions
  // (wasted) either re-queued already or still in limbo awaiting their
  // collated report.
#ifdef DGS_ENABLE_DCHECKS
  {
    double offered = 0.0, acked = 0.0, pending = 0.0, queued = 0.0,
           dropped = 0.0;
    for (int s = 0; s < num_sats_; ++s) {
      offered += queues_[s].offered_bytes();
      acked += queues_[s].acked_bytes();
      pending += queues_[s].pending_ack_bytes();
      queued += queues_[s].queued_bytes();
      dropped += queues_[s].dropped_bytes();
    }
    const double tol = 1e-6 * std::max(1.0, offered);
    DGS_CHECK(std::abs(res_.total_generated_bytes - offered) <= tol,
              "generated=" << res_.total_generated_bytes
                           << " != offered=" << offered);
    DGS_CHECK(std::abs(res_.total_generated_bytes -
                       (dropped + queued + pending + acked)) <= tol,
              "generated=" << res_.total_generated_bytes << " vs dropped="
                           << dropped << " + queued=" << queued
                           << " + pending_ack=" << pending << " + acked="
                           << acked);
    // Sent bytes not yet returned by a report are exactly the pending set.
    DGS_CHECK(std::abs((res_.total_delivered_bytes +
                        res_.wasted_transmission_bytes -
                        res_.requeued_bytes) -
                       (acked + pending)) <= tol,
              "delivered=" << res_.total_delivered_bytes << " + wasted="
                           << res_.wasted_transmission_bytes
                           << " - requeued=" << res_.requeued_bytes
                           << " vs acked=" << acked << " + pending_ack="
                           << pending);
  }
#endif
}

void Session::publish_metrics() {
  obs::Registry* const metrics = opts_.metrics;
  if (metrics == nullptr) return;
  // Each family is set from its one ledger on the driver thread, so it is
  // bit-identical to the value report() renders (DESIGN.md §10).
  const auto counter = [metrics](const std::string& name,
                                 const std::string& help, double v) {
    metrics->counter(name, help)->reset_to(v);
  };
  const auto count = [](std::int64_t n) { return static_cast<double>(n); };
  double backlog = 0.0;
  double pending = 0.0;
  double dropped = 0.0;
  std::int64_t plan_uploads = 0;
  for (int s = 0; s < num_sats_; ++s) {
    backlog += queues_[s].queued_bytes();
    pending += queues_[s].pending_ack_bytes();
    dropped += queues_[s].dropped_bytes();
    plan_uploads += res_.per_satellite[s].tx_contacts;
  }
  counter("dgs_sim_generated_bytes_total", "Bytes captured at the sensors",
          res_.total_generated_bytes);
  counter("dgs_sim_delivered_bytes_total", "Bytes captured by the ground",
          res_.total_delivered_bytes);
  counter("dgs_sim_dropped_bytes_total", "Bytes lost to full recorders",
          dropped);
  counter("dgs_sim_wasted_bytes_total",
          "Bytes transmitted into failed (mis-predicted MODCOD) slots",
          res_.wasted_transmission_bytes);
  counter("dgs_sim_requeued_bytes_total",
          "Bytes re-queued for retransmission after a collated report",
          res_.requeued_bytes);
  counter("dgs_sim_assignments_total", "Scheduled (sat, station) slots",
          count(res_.assignments));
  counter("dgs_sim_failed_assignments_total",
          "Slots whose scheduled MODCOD did not close",
          count(res_.failed_assignments));
  counter("dgs_sim_slew_events_total",
          "Station retargets to a new satellite (slew model on)",
          count(res_.slew_events));
  counter("dgs_sim_steps_total", "Simulation steps executed", count(step_));
  // One ack-delay sample per acknowledged batch.
  counter("dgs_sim_ack_batches_total",
          "Delivery batches acknowledged via collated reports",
          static_cast<double>(acks_.size()));
  counter("dgs_sim_plan_uploads_total",
          "Fresh plans uploaded at transmit-capable contacts",
          count(plan_uploads));
  metrics->gauge("dgs_sim_backlog_bytes",
                 "Bytes queued on board across satellites")
      ->set(backlog);
  metrics->gauge("dgs_sim_pending_ack_bytes",
                 "Bytes delivered but not yet acknowledged")
      ->set(pending);
  metrics->gauge("dgs_backhaul_queued_bytes",
                 "Bytes still queued at station edges (not yet in the cloud)")
      ->set(station_queued_bytes());
  if (timeline_.has_value()) {
    counter("dgs_faults_outage_lost_bytes_total",
            "Bytes transmitted into a faulted station's dead contact",
            res_.outage_lost_bytes);
    counter("dgs_faults_ack_retries_total",
            "Ack-relay report attempts lost to Internet faults and retried",
            count(res_.ack_retries));
    counter("dgs_faults_replans_total",
            "Look-ahead replans triggered by an assigned station faulting",
            count(res_.replans));
    counter("dgs_faults_plan_upload_failures_total",
            "TX contacts whose TT&C exchange failed",
            count(res_.plan_upload_failures));
    metrics->gauge("dgs_faults_stations_down", "Stations currently in outage")
        ->set(count(std::count_if(prev_down_.begin(), prev_down_.end(),
                                  [](char d) { return d != 0; })));
  }
  // Per-tenant series (service mode): names carry the validated tenant
  // name, e.g. dgs_tenant_acme_delivered_bytes_total.
  for (int t = 0; arbiter_.has_value() && t < arbiter_->num_tenants(); ++t) {
    const std::string& name = arbiter_->tenant(t).name;
    counter("dgs_tenant_" + name + "_delivered_bytes_total",
            "Bytes delivered for tenant " + name,
            arbiter_->delivered_bytes(t));
    counter("dgs_tenant_" + name + "_assignments_total",
            "Scheduled slots for tenant " + name,
            count(arbiter_->assignments(t)));
    metrics->gauge("dgs_tenant_" + name + "_share",
                   "Realized delivered-bytes share of tenant " + name)
        ->set(arbiter_->share(t));
  }
}

std::int64_t Session::run_until_hours(double t_hours) {
  std::int64_t executed = 0;
  while (!done() &&
         static_cast<double>(step_) * dt_ / 3600.0 < t_hours) {
    step();
    ++executed;
  }
  return executed;
}

SimulationResult Session::run_to_end() {
  while (!done()) step();
  finalize();  // Covers degenerate zero-step horizons.
  return report();
}

SimulationResult Session::report() const {
  SimulationResult out = res_;
  for (int s = 0; s < num_sats_; ++s) {
    SatelliteOutcome& o = out.per_satellite[s];
    o.backlog_bytes = queues_[s].queued_bytes();
    o.pending_ack_bytes = queues_[s].pending_ack_bytes();
    o.dropped_bytes = queues_[s].dropped_bytes();
    out.total_dropped_bytes += o.dropped_bytes;
    out.backlog_gb.add(o.backlog_bytes / 1e9);
  }
  out.station_queued_bytes = station_queued_bytes();
  out.steps = step_;
  // Every assignment keeps one station busy for one step.
  out.mean_station_utilization =
      step_ > 0 ? static_cast<double>(res_.assignments) /
                      static_cast<double>(step_ * num_stations_)
                : 0.0;
  // Every delay, rebuilt from its ledger's step ages with the expression
  // step() measured it with, so each is the same double.  at[c + 1] is
  // where a delay starting at step c starts; deliveries and acks end at
  // their step's start, cloud arrivals at its upload epoch.
  std::vector<util::Epoch> at(static_cast<std::size_t>(step_) + 1);
  for (std::int64_t c = -1; c < step_; ++c) at[c + 1] = start_epoch(c);
  const std::span<const util::Epoch> step_starts =
      std::span<const util::Epoch>(at).subspan(1);
  const auto minutes = [&at](const StepAges& ledger,
                             std::span<const util::Epoch> end) {
    std::vector<double> v(ledger.size());
    std::size_t i = 0;
    ledger.for_each([&](std::int64_t d, std::int64_t c) {
      v[i++] = end[static_cast<std::size_t>(d)].seconds_since(
                   at[static_cast<std::size_t>(c + 1)]) /
               60.0;
    });
    return v;
  };
  std::vector<util::Epoch> uploads;
  if (cloud_.size() > 0) {
    uploads.resize(static_cast<std::size_t>(step_));
    for (std::int64_t d = 0; d < step_; ++d) uploads[d] = upload_epoch(d);
  }
  out.cloud_latency_minutes = util::SampleSet(minutes(cloud_, uploads));
  out.ack_delay_minutes = util::SampleSet(minutes(acks_, step_starts));

  // The latency splits, in delivery order (SampleSet::mean() sums in
  // insertion order).  Without urgent chunks, the usual case, every chunk
  // is bulk.  `latency` moves into the all-chunks split at the end.
  std::vector<double> latency = minutes(delivered_, step_starts);
  if (std::ranges::count(delivered_urgent_, 1) == 0) {
    out.bulk_latency_minutes = util::SampleSet(latency);
  } else {
    for (std::size_t i = 0; i < latency.size(); ++i) {
      (delivered_urgent_[i] != 0 ? out.urgent_latency_minutes
                                 : out.bulk_latency_minutes)
          .add(latency[i]);
    }
  }
  const int tenants = arbiter_.has_value() ? arbiter_->num_tenants() : 0;
  out.per_tenant.resize(static_cast<std::size_t>(tenants));
  // Each tenant's latencies, sized first so that each is written once.
  std::vector<std::vector<double>> by_tenant(out.per_tenant.size());
  if (tenants > 0) {
    std::vector<std::size_t> n(by_tenant.size(), 0);
    const auto tenant_of = [this](std::uint32_t sat) {
      return static_cast<std::size_t>(
          arbiter_->tenant_of(static_cast<int>(sat)));
    };
    for (const std::uint32_t sat : delivered_sat_) n[tenant_of(sat)] += 1;
    for (std::size_t t = 0; t < n.size(); ++t) by_tenant[t].reserve(n[t]);
    for (std::size_t i = 0; i < latency.size(); ++i) {
      by_tenant[tenant_of(delivered_sat_[i])].push_back(latency[i]);
    }
  }
  for (int t = 0; t < tenants; ++t) {
    const TenantSpec& spec = arbiter_->tenant(t);
    TenantOutcome& to = out.per_tenant[static_cast<std::size_t>(t)];
    to.name = spec.name;
    to.weight = spec.weight;
    to.sla_latency_minutes = spec.sla_latency_minutes;
    to.num_satellites = static_cast<int>(spec.satellites.size());
    for (const int s : spec.satellites) {
      to.generated_bytes += out.per_satellite[s].generated_bytes;
      to.backlog_bytes += queues_[s].queued_bytes();
    }
    to.delivered_bytes = arbiter_->delivered_bytes(t);
    to.assignments = arbiter_->assignments(t);
    to.entitlement = arbiter_->entitlement(t);
    to.share = arbiter_->share(t);
    std::vector<double>& lat = by_tenant[static_cast<std::size_t>(t)];
    if (!lat.empty()) {
      const double sla = spec.sla_latency_minutes;
      const auto within = std::count_if(
          lat.begin(), lat.end(),
          [sla](double v) { return sla <= 0.0 || v <= sla; });
      to.sla_attainment =
          static_cast<double>(within) / static_cast<double>(lat.size());
    }
    to.latency_minutes = util::SampleSet(std::move(lat));
  }
  out.latency_minutes = util::SampleSet(std::move(latency));
  return out;
}

std::uint32_t Session::options_crc32() const {
  BinaryWriter w;
  put_options(w, opts_);
  return util::crc32(
      {reinterpret_cast<const std::uint8_t*>(w.data().data()),
       w.data().size()});
}

template <class Ar>
void Session::io_section(Ar& ar, std::string_view name) {
  if (name == "result") {
    // The delay ledgers, the accumulators and the open contacts; report()
    // derives everything else.  Only chunks of an initial backlog start
    // at step -1; an ack measures from the step its batch was sent.
    const std::int64_t first_capture =
        opts_.initial_backlog_bytes > 0.0 ? -1 : 0;
    delivered_.io(ar, step_, first_capture);
    ar.leb128(delivered_sat_);
    ar.column(delivered_urgent_);
    for (const std::uint32_t sat : delivered_sat_) {
      ar.check_index(sat, num_sats_);
    }
    for (const std::uint8_t urgent : delivered_urgent_) {
      ar.check_index(urgent, 2);
    }
    ar.check_size(delivered_sat_.size(), delivered_.size());
    ar.check_size(delivered_urgent_.size(), delivered_.size());
    cloud_.io(ar, step_, first_capture);
    acks_.io(ar, step_, 0);
    ar.seq(res_.timeseries);
    ar.expect(num_sats_);
    for (SatelliteOutcome& o : res_.per_satellite) ar.obj(o);
    ar.f64(res_.total_generated_bytes);
    ar.f64(res_.total_delivered_bytes);
    ar.f64(res_.assigned_capacity_bytes);
    ar.i64(res_.assignments);
    ar.f64(res_.total_matched_value);
    ar.i64(res_.failed_assignments);
    ar.f64(res_.wasted_transmission_bytes);
    ar.f64(res_.requeued_bytes);
    ar.i64(res_.slew_events);
    ar.f64(res_.outage_lost_bytes);
    ar.i64(res_.ack_retries);
    ar.i64(res_.replans);
    ar.i64(res_.plan_upload_failures);
    for (std::vector<OpenContact>& mine : open_contacts_) ar.seq(mine);
  } else if (name == "queues") {
    // Per-satellite onboard stores + plan-upload stamps.
    ar.expect(num_sats_);
    for (OnboardQueue& q : queues_) ar.obj(q);
    for (util::Epoch& e : last_plan_) ar.obj(e);
  } else if (name == "stations") {
    // Served/fault masks + edge queues.
    ar.expect(num_stations_);
    for (int& served : prev_served_) ar.i32(served);
    ar.expect(station_faults_);
    if (station_faults_) {
      for (char& d : prev_down_) {
        auto down = static_cast<std::uint8_t>(d);
        ar.u8(down);
        if constexpr (Ar::kReading) d = static_cast<char>(down);
      }
    }
    ar.expect(backhaul_faults_);
    if (backhaul_faults_) {
      for (double& m : prev_backhaul_mult_) ar.f64(m);
    }
    ar.expect(!edge_queues_.empty());
    for (backend::StationEdgeQueue& eq : edge_queues_) ar.obj(eq);
  } else if (name == "planner") {
    // The active look-ahead horizon.  step() executes
    // per_step[step_ - plan_origin_] until the window runs out, so both
    // the edges and that offset must fit this session.
    ar.i64(plan_origin_);
    ar.seq(plan_.per_step, [this](auto& a, std::vector<ContactEdge>& edges) {
      a.seq(edges, [this](auto& b, ContactEdge& e) {
        b.obj(e);
        b.check_index(e.sat, num_sats_);
        b.check_index(e.station, num_stations_);
      });
    });
    ar.check_index(plan_origin_ + 1, step_ + 2);  // -1 = no plan yet.
    if (plan_origin_ >= 0 && !done() &&
        step_ - plan_origin_ < plan_window_steps_) {
      ar.check_index(step_ - plan_origin_, std::ssize(plan_.per_step));
    }
  } else if (name == "geometry" || name == "matcher") {
    // Empty since v3: the state they held (the step-geometry cache and
    // the warm-start matcher) is gone.  A non-empty body is rejected as
    // trailing bytes.
  } else if (name == "tenants") {
    // The fair-share books.
    ar.expect(arbiter_.has_value());
    if (arbiter_.has_value()) {
      ar.expect(arbiter_->num_tenants());
      for (int t = 0; t < arbiter_->num_tenants(); ++t) arbiter_->io(ar, t);
    }
  } else if (name == "metrics") {
    // The registry's folded state, so a resumed run's scrape is
    // byte-identical to an uninterrupted one.  Consumed even when this
    // session has no registry.  The published families in it are set
    // again from their sources once the checkpoint is applied.
    bool has_metrics = opts_.metrics != nullptr;
    std::vector<obs::MetricSnapshot> snap;
    if (!Ar::kReading && has_metrics) snap = opts_.metrics->snapshot();
    ar.b(has_metrics);
    if (has_metrics) ar.seq(snap);
    if (Ar::kReading && opts_.metrics != nullptr && !snap.empty()) {
      opts_.metrics->restore(snap);
    }
  } else {
    DGS_CHECK(false, "unknown checkpoint section '" << name << "'");
  }
}

void Session::snapshot(std::ostream& out) const {
  // io_section serves both directions, so it takes a mutable session; the
  // writer only reads the fields it is handed.
  Session& self = const_cast<Session&>(*this);
  std::vector<std::pair<std::string, std::string>> sections;
  for (const char* name : checkpoint_section_names()) {
    BinaryWriter w;
    self.io_section(w, name);
    sections.emplace_back(name, w.take());
  }
  CheckpointHeader header;
  header.num_satellites = num_sats_;
  header.num_stations = num_stations_;
  header.steps = steps_;
  header.step_index = step_;
  header.step_seconds = dt_;
  header.duration_hours = opts_.duration_hours;
  header.finalized = finalized_;
  header.options_crc32 = options_crc32();
  write_checkpoint(out, header, sections);
}

std::unique_ptr<Session> Session::restore(
    std::istream& in, std::vector<groundseg::SatelliteConfig> sats,
    std::vector<groundseg::GroundStation> stations,
    const weather::WeatherProvider* actual_weather,
    const SimulationOptions& opts) {
  // One buffer, filled in large blocks: read() keeps pulling from the
  // stream until a block is full or the stream ends.
  std::string data;
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  while (in) {
    const std::size_t at = data.size();
    data.resize(at + kBlock);
    in.read(data.data() + at, kBlock);
    data.resize(at + static_cast<std::size_t>(in.gcount()));
  }
  const bool registry_was_empty =
      opts.metrics != nullptr && opts.metrics->series_count() == 0;
  auto session = std::unique_ptr<Session>(
      new Session(std::move(sats), std::move(stations), actual_weather,
                  opts, /*publish=*/false));
  session->apply_checkpoint(data, registry_was_empty);
  return session;
}

void Session::apply_checkpoint(std::string_view data,
                               bool registry_was_empty) {
  CheckpointView view;
  if (const auto e = read_checkpoint(data, &view)) {
    // dgslint: allow(R4) -- renders ArtifactError for the caller/CLI
    throw std::invalid_argument("checkpoint: " + e->where + ": " +
                                e->message);
  }
  const CheckpointHeader& h = view.header;
  const auto mismatch = [](const std::string& what) {
    // dgslint: allow(R4) -- identity mismatch is caller-recoverable
    throw std::invalid_argument("checkpoint: " + what +
                                " does not match this session");
  };
  if (h.num_satellites != num_sats_) mismatch("num_satellites");
  if (h.num_stations != num_stations_) mismatch("num_stations");
  if (h.steps != steps_) mismatch("steps");
  // The header renders the grid at %.6f; compare with matching slack.
  if (std::abs(h.step_seconds - dt_) > 1e-6 * std::max(1.0, dt_)) {
    mismatch("step_seconds");
  }
  if (std::abs(h.duration_hours - opts_.duration_hours) >
      1e-6 * std::max(1.0, opts_.duration_hours)) {
    mismatch("duration_hours");
  }
  if (h.options_crc32 != options_crc32()) mismatch("options_crc32");

  // Set first: the planner section checks its offsets against them.
  step_ = h.step_index;
  finalized_ = h.finalized;
  for (const char* name : checkpoint_section_names()) {
    BinaryReader r(view.section(name));
    io_section(r, name);
    DGS_ENSURE(r.done(),
               "trailing bytes in checkpoint section '" << name << "'");
  }
  publish_metrics();
  // The published families were just set again from their ledgers, so a
  // metrics section that disagrees with them, or names a series this
  // session never registers, is corrupt.  The check needs a registry that
  // held nothing else: one shared with a live session may carry more.
  if (registry_was_empty && view.section("metrics").starts_with('\x01')) {
    BinaryWriter w;
    io_section(w, "metrics");
    DGS_ENSURE(w.data() == view.section("metrics"),
               "checkpoint section 'metrics' disagrees with the restored "
               "ledgers");
  }
}

}  // namespace dgs::core
