// Steppable Session API: snapshot/restore round trips (DESIGN.md §16).
//
// The golden test interrupts a storm-profile lookahead run mid-horizon,
// snapshots, restores under thread counts 1 and 4, and requires every
// output surface — summary JSON, Prometheus exposition, event JSONL — to
// be byte-identical to the uninterrupted run; a per-instant tenant/churn
// run and the storm look-ahead run are restored every 10 steps under the
// same requirement.  Checked-in v4 fixtures pin the on-disk format: each
// restores and re-snapshots to the same bytes, and the v1, v2 and v3
// fixtures are rejected.  Negative-space tests pin the checkpoint
// validator: truncations, corrupt bytes, oversized length prefixes,
// out-of-range indices and delay-ledger steps, bytes in the empty
// geometry/matcher sections and scenario mismatches must all be rejected
// with std::invalid_argument.  test_checkpoint_fuzz.cpp mutates the v4
// fixtures at random under the same contract.  A
// restore fed by short stream reads must still re-snapshot byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/profiles.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

struct Scenario {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  SimulationOptions opts;
};

// Storm faults + hourly lookahead replanning: the hardest trajectory to
// reproduce, exercising fault masks, horizon plans, and replans.
Scenario golden_scenario() {
  groundseg::NetworkOptions net;
  net.num_stations = 12;
  net.num_satellites = 8;
  net.seed = 13;
  Scenario s;
  s.sats = groundseg::generate_constellation(net, kT0);
  s.stations = groundseg::generate_dgs_stations(net);
  s.opts.start = kT0;
  s.opts.duration_hours = 4.0;
  s.opts.lookahead_hours = 1.0;
  s.opts.faults = faults::make_profile("storm", 7, net.num_stations);
  if (s.opts.faults.has_backhaul_faults()) {
    s.opts.station_backhaul_bps = 50e6;
  }
  return s;
}

// Per-instant mode with two tenants, station churn and a 50 Mbps
// backhaul on the golden network: exercises the matcher, tenant and
// edge-queue state that the look-ahead scenario leaves empty.
Scenario tenant_churn_scenario() {
  Scenario s = golden_scenario();
  s.opts.lookahead_hours = 0.0;
  s.opts.faults = faults::make_profile("churn", 7, 12);
  s.opts.station_backhaul_bps = 50e6;
  TenantSpec a;
  a.name = "a";
  a.weight = 1.0;
  a.satellites = {0, 1, 2, 3};
  TenantSpec b;
  b.name = "b";
  b.weight = 2.0;
  b.satellites = {4, 5, 6, 7};
  s.opts.tenants = {a, b};
  return s;
}

std::string summary_bytes(const SimulationResult& r) {
  std::stringstream ss;
  write_summary_json(ss, r);
  return ss.str();
}

// Every output surface of one full run, captured as bytes.
struct RunOutputs {
  std::string summary;
  std::string prometheus;
  std::string events;
};

RunOutputs run_uninterrupted(const Scenario& s, int threads) {
  SimulationOptions opts = s.opts;
  opts.parallel.num_threads = threads;
  obs::Registry registry;
  opts.metrics = &registry;
  std::ostringstream events;
  obs::EventLog log(&events);
  opts.events = &log;
  Session session(s.sats, s.stations, nullptr, opts);
  RunOutputs out;
  out.summary = summary_bytes(session.run_to_end());
  std::ostringstream prom;
  registry.write_prometheus(prom);
  out.prometheus = prom.str();
  out.events = events.str();
  return out;
}

TEST(Session, RunToEndMatchesSimulatorRun) {
  const Scenario s = golden_scenario();
  Session session(s.sats, s.stations, nullptr, s.opts);
  const std::string via_session = summary_bytes(session.run_to_end());
  const std::string via_simulator =
      summary_bytes(Simulator(s.sats, s.stations, nullptr, s.opts).run());
  EXPECT_EQ(via_session, via_simulator);
}

TEST(Session, StepAccountingAndDoneContract) {
  const Scenario s = golden_scenario();
  Session session(s.sats, s.stations, nullptr, s.opts);
  EXPECT_EQ(session.step_index(), 0);
  EXPECT_FALSE(session.done());
  session.step();
  EXPECT_EQ(session.step_index(), 1);
  EXPECT_EQ(session.run_until_hours(2.0),
            session.num_steps() / 2 - 1);
  while (!session.done()) session.step();
  EXPECT_TRUE(session.finalized());
  EXPECT_THROW(session.step(), std::invalid_argument);
}

TEST(Session, ReportMidRunDoesNotPerturbTheRun) {
  const Scenario s = golden_scenario();
  Session a(s.sats, s.stations, nullptr, s.opts);
  Session b(s.sats, s.stations, nullptr, s.opts);
  a.run_until_hours(2.0);
  const SimulationResult mid = a.report();
  EXPECT_GT(mid.steps, 0);
  while (!a.done()) a.step();
  EXPECT_EQ(summary_bytes(a.report()), summary_bytes(b.run_to_end()));
}

// The tentpole acceptance test: snapshot at mid-horizon, restore at
// thread counts 1 and 4, and require the interrupted run's combined
// outputs to be byte-identical to the uninterrupted baseline.
TEST(SessionCheckpoint, MidHorizonRestoreIsByteIdenticalAcrossThreads) {
  const Scenario s = golden_scenario();
  const RunOutputs baseline = run_uninterrupted(s, 1);

  // First half, snapshotted.
  obs::Registry reg1;
  std::ostringstream events1;
  obs::EventLog log1(&events1);
  SimulationOptions opts1 = s.opts;
  opts1.metrics = &reg1;
  opts1.events = &log1;
  Session first(s.sats, s.stations, nullptr, opts1);
  first.run_until_hours(2.0);
  std::stringstream checkpoint;
  first.snapshot(checkpoint);
  const std::string checkpoint_bytes = checkpoint.str();
  const std::string events_prefix = events1.str();

  for (const int threads : {1, 4}) {
    SimulationOptions opts2 = s.opts;
    opts2.parallel.num_threads = threads;
    obs::Registry reg2;
    std::ostringstream events2;
    obs::EventLog log2(&events2);
    opts2.metrics = &reg2;
    opts2.events = &log2;
    std::istringstream in(checkpoint_bytes);
    std::unique_ptr<Session> restored =
        Session::restore(in, s.sats, s.stations, nullptr, opts2);
    EXPECT_EQ(restored->step_index(), first.step_index());
    const SimulationResult r = restored->run_to_end();
    EXPECT_EQ(summary_bytes(r), baseline.summary) << "threads=" << threads;
    std::ostringstream prom;
    reg2.write_prometheus(prom);
    EXPECT_EQ(prom.str(), baseline.prometheus) << "threads=" << threads;
    EXPECT_EQ(events_prefix + events2.str(), baseline.events)
        << "threads=" << threads;
  }
}

// One session with its own metrics and event sinks; only a checkpoint
// carries state from one leg to the next.
struct Leg {
  obs::Registry registry;
  std::ostringstream events;
  obs::EventLog log{&events};
  std::unique_ptr<Session> session;

  SimulationOptions sinks(SimulationOptions opts, bool with_registry) {
    opts.metrics = with_registry ? &registry : nullptr;
    opts.events = &log;
    return opts;
  }
};

// Runs `s` to the end, restoring it into a fresh leg at every 10th step
// (alternating thread counts); the event log is spliced across legs.
RunOutputs run_restoring_every_ten_steps(const Scenario& s,
                                         bool with_registry) {
  auto leg = std::make_unique<Leg>();
  leg->session = std::make_unique<Session>(
      s.sats, s.stations, nullptr, leg->sinks(s.opts, with_registry));
  RunOutputs out;
  int restores = 0;
  for (;;) {
    if (leg->session->step_index() % 10 == 0) {
      std::stringstream cp;
      leg->session->snapshot(cp);
      out.events += leg->events.str();
      auto next = std::make_unique<Leg>();
      SimulationOptions opts = next->sinks(s.opts, with_registry);
      opts.parallel.num_threads = restores % 2 == 0 ? 1 : 4;
      next->session =
          Session::restore(cp, s.sats, s.stations, nullptr, opts);
      leg = std::move(next);
      ++restores;
    }
    if (leg->session->done()) break;
    leg->session->step();
  }
  EXPECT_EQ(restores, 25);
  out.summary = summary_bytes(leg->session->report());
  std::ostringstream prom;
  leg->registry.write_prometheus(prom);
  out.prometheus = prom.str();
  out.events += leg->events.str();
  return out;
}

// Per-instant coverage of every Session member: a run restored at every
// 10th step must produce the uninterrupted run's outputs.  A field an
// io() skips shows up in the summary, the scrape or the event log.
TEST(SessionCheckpoint, PerInstantRestoreEveryTenStepsIsByteIdentical) {
  const Scenario s = tenant_churn_scenario();
  const RunOutputs baseline = run_uninterrupted(s, 1);
  const RunOutputs resumed = run_restoring_every_ten_steps(s, true);
  EXPECT_EQ(resumed.summary, baseline.summary);
  EXPECT_EQ(resumed.prometheus, baseline.prometheus);
  EXPECT_EQ(resumed.events, baseline.events);
  // Without a registry the checkpoint carries no metrics, and the summary
  // and event log still resume exactly.
  const RunOutputs unscraped = run_restoring_every_ten_steps(s, false);
  EXPECT_EQ(unscraped.summary, baseline.summary);
  EXPECT_EQ(unscraped.events, baseline.events);
}

// The look-ahead planner reuses step geometry across windows through a
// table the checkpoint does not carry: every leg of a run restored at
// each 10th step starts it cold, and must still produce the uninterrupted
// run's outputs, dgs_vis_* counters included.
TEST(SessionCheckpoint, LookaheadRestoreEveryTenStepsIsByteIdentical) {
  const Scenario s = golden_scenario();
  const RunOutputs baseline = run_uninterrupted(s, 1);
  const RunOutputs resumed = run_restoring_every_ten_steps(s, true);
  EXPECT_EQ(resumed.summary, baseline.summary);
  EXPECT_EQ(resumed.prometheus, baseline.prometheus);
  EXPECT_EQ(resumed.events, baseline.events);
  const RunOutputs unscraped = run_restoring_every_ten_steps(s, false);
  EXPECT_EQ(unscraped.summary, baseline.summary);
  EXPECT_EQ(unscraped.events, baseline.events);
}

// A checkpoint taken without an event log restores into a run that logs
// one: every event is emitted by the step it happens in, so the resumed
// log equals the uninterrupted run's from the same step on.
TEST(SessionCheckpoint, CacheEventsResumeFromACheckpointWithoutEventLog) {
  const Scenario s = tenant_churn_scenario();
  std::ostringstream full_events;
  obs::EventLog full_log(&full_events);
  SimulationOptions logged = s.opts;
  logged.events = &full_log;
  Session full(s.sats, s.stations, nullptr, logged);
  full.run_until_hours(1.0);
  const std::size_t prefix = full_events.str().size();
  full.run_to_end();
  const std::string suffix = full_events.str().substr(prefix);
  ASSERT_FALSE(suffix.empty());

  Session unlogged(s.sats, s.stations, nullptr, s.opts);
  unlogged.run_until_hours(1.0);
  std::stringstream cp;
  unlogged.snapshot(cp);
  std::ostringstream resumed_events;
  obs::EventLog resumed_log(&resumed_events);
  SimulationOptions resumed_opts = s.opts;
  resumed_opts.events = &resumed_log;
  Session::restore(cp, s.sats, s.stations, nullptr, resumed_opts)
      ->run_to_end();
  EXPECT_EQ(resumed_events.str(), suffix);
}

// dgs.checkpoint.v4 fixtures written at 1 h, with a registry and an event
// log attached.  Restore recomputes no physics, so re-snapshotting must
// reproduce the file exactly on any platform; it fails as soon as either
// the writer or the reader leaves v4.  The v1, v2 and v3 fixtures of the
// same scenarios stay checked in to pin that an older format is refused,
// not misread.
std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(DGS_TEST_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void expect_fixture_round_trips(const Scenario& s, const std::string& name) {
  const std::string bytes = read_fixture(name);
  ASSERT_FALSE(bytes.empty()) << name;
  obs::Registry registry;
  SimulationOptions opts = s.opts;
  opts.metrics = &registry;
  std::istringstream in(bytes);
  std::unique_ptr<Session> restored =
      Session::restore(in, s.sats, s.stations, nullptr, opts);
  EXPECT_EQ(restored->step_index(), 60);
  std::ostringstream again;
  restored->snapshot(again);
  // Not EXPECT_EQ: a mismatch would print two 30-50 KB binary strings.
  EXPECT_TRUE(again.str() == bytes) << name << " re-snapshots differently";
}

TEST(SessionCheckpointFixture, StormLookaheadV4RoundTripsByteForByte) {
  expect_fixture_round_trips(golden_scenario(),
                             "checkpoint_v4_storm_lookahead_1h.ckpt");
}

TEST(SessionCheckpointFixture, TenantsChurnV4RoundTripsByteForByte) {
  expect_fixture_round_trips(tenant_churn_scenario(),
                             "checkpoint_v4_tenants_churn_1h.ckpt");
}

// SimulationOptions::value_scale is hashed into options_crc32 only when it
// is set: both v4 fixtures carry the CRC their scenario has today (no
// table), different tables hash apart, and restoring under another table
// is refused by the options check.
TEST(SessionCheckpointFixture, ValueScaleIsHashedOnlyWhenSet) {
  const std::pair<Scenario, std::string> fixtures[] = {
      {golden_scenario(), "checkpoint_v4_storm_lookahead_1h.ckpt"},
      {tenant_churn_scenario(), "checkpoint_v4_tenants_churn_1h.ckpt"},
  };
  for (const auto& [s, name] : fixtures) {
    const std::string bytes = read_fixture(name);
    CheckpointView view;
    ASSERT_FALSE(read_checkpoint(bytes, &view).has_value()) << name;
    EXPECT_EQ(view.header.options_crc32,
              Session(s.sats, s.stations, nullptr, s.opts).options_crc32())
        << name;
  }

  const Scenario s = tenant_churn_scenario();
  SimulationOptions ones = s.opts;
  ones.value_scale.assign(s.sats.size() * s.stations.size(), 1.0);
  SimulationOptions bids = ones;
  bids.value_scale[5] = 2.0;
  Session plain(s.sats, s.stations, nullptr, s.opts);
  Session with_ones(s.sats, s.stations, nullptr, ones);
  const Session with_bids(s.sats, s.stations, nullptr, bids);
  EXPECT_NE(with_ones.options_crc32(), plain.options_crc32());
  EXPECT_NE(with_bids.options_crc32(), with_ones.options_crc32());

  with_ones.run_until_hours(1.0);
  std::stringstream cp;
  with_ones.snapshot(cp);
  try {
    Session::restore(cp, s.sats, s.stations, nullptr, bids);
    ADD_FAILURE() << "restored under a different value_scale";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("options_crc32 does not match"),
              std::string::npos)
        << e.what();
  }
}

/// Restoring both fixtures of format `version` ("v1", "v2", "v3") must
/// throw std::invalid_argument naming that version.
void expect_fixtures_rejected(const std::string& version) {
  const std::pair<Scenario, std::string> fixtures[] = {
      {golden_scenario(),
       "checkpoint_" + version + "_storm_lookahead_1h.ckpt"},
      {tenant_churn_scenario(),
       "checkpoint_" + version + "_tenants_churn_1h.ckpt"},
  };
  for (const auto& [s, name] : fixtures) {
    const std::string bytes = read_fixture(name);
    ASSERT_FALSE(bytes.empty()) << name;
    std::istringstream in(bytes);
    try {
      Session::restore(in, s.sats, s.stations, nullptr, s.opts);
      ADD_FAILURE() << name << " restored";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("dgs.checkpoint." + version),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SessionCheckpointFixture, V1FixturesAreRejectedNamingTheVersion) {
  expect_fixtures_rejected("v1");
}

TEST(SessionCheckpointFixture, V2FixturesAreRejectedNamingTheVersion) {
  expect_fixtures_rejected("v2");
}

TEST(SessionCheckpointFixture, V3FixturesAreRejectedNamingTheVersion) {
  expect_fixtures_rejected("v3");
}

// An immediate snapshot (step 0) restores to the full run, and a
// snapshot after the final step restores as already-done.
TEST(SessionCheckpoint, EdgeOfHorizonSnapshots) {
  const Scenario s = golden_scenario();
  const RunOutputs baseline = run_uninterrupted(s, 1);

  Session fresh(s.sats, s.stations, nullptr, s.opts);
  std::stringstream cp0;
  fresh.snapshot(cp0);
  std::unique_ptr<Session> from0 =
      Session::restore(cp0, s.sats, s.stations, nullptr, s.opts);
  EXPECT_EQ(summary_bytes(from0->run_to_end()), baseline.summary);

  Session full(s.sats, s.stations, nullptr, s.opts);
  const std::string done_summary = summary_bytes(full.run_to_end());
  std::stringstream cp_end;
  full.snapshot(cp_end);
  std::unique_ptr<Session> from_end =
      Session::restore(cp_end, s.sats, s.stations, nullptr, s.opts);
  EXPECT_TRUE(from_end->done());
  EXPECT_TRUE(from_end->finalized());
  EXPECT_EQ(summary_bytes(from_end->report()), done_summary);
}

/// Hands out its bytes at most 7 per underflow(), as a pipe or socket
/// delivers partial reads.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (at_ == data_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(7, data_.size() - at_);
    char* p = data_.data() + at_;
    setg(p, p, p + n);
    at_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string data_;
  std::size_t at_ = 0;
};

// Restore must gather the whole checkpoint however the stream splits it.
TEST(SessionCheckpoint, RestoreFromShortReadsIsByteIdentical) {
  for (const Scenario& s : {golden_scenario(), tenant_churn_scenario()}) {
    Session session(s.sats, s.stations, nullptr, s.opts);
    session.run_until_hours(1.0);
    std::ostringstream cp;
    session.snapshot(cp);
    const std::string bytes = cp.str();
    TrickleBuf trickle(bytes);
    std::istream in(&trickle);
    std::unique_ptr<Session> restored =
        Session::restore(in, s.sats, s.stations, nullptr, s.opts);
    std::ostringstream again;
    restored->snapshot(again);
    EXPECT_TRUE(again.str() == bytes) << "re-snapshots differently";
  }
}

// --- Negative space: the validator must reject every malformed or
// mismatched checkpoint with std::invalid_argument -------------------------

class SessionCheckpointNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    s_ = golden_scenario();
    Session session(s_.sats, s_.stations, nullptr, s_.opts);
    session.run_until_hours(1.0);
    std::stringstream ss;
    session.snapshot(ss);
    bytes_ = ss.str();
  }

  void expect_rejected(const std::string& data) {
    std::istringstream in(data);
    EXPECT_THROW(Session::restore(in, s_.sats, s_.stations, nullptr, s_.opts),
                 std::invalid_argument);
  }

  Scenario s_;
  std::string bytes_;
};

TEST_F(SessionCheckpointNegative, TruncationsAtEveryLayerAreRejected) {
  // Inside the magic, inside the header, inside the payload, and one
  // byte short of complete.
  for (const std::size_t len :
       {std::size_t{4}, std::size_t{40}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    ASSERT_LT(len, bytes_.size());
    expect_rejected(bytes_.substr(0, len));
  }
}

TEST_F(SessionCheckpointNegative, WrongMagicIsRejected) {
  std::string t = bytes_;
  t[0] = 'x';
  expect_rejected(t);
}

TEST_F(SessionCheckpointNegative, PayloadBitflipFailsTheCrc) {
  // Flip one byte deep in the payload; the header CRC must catch it.
  std::string t = bytes_;
  t[t.size() - 16] ^= 0x01;
  expect_rejected(t);
}

TEST_F(SessionCheckpointNegative, HeaderTamperingIsRejected) {
  // Doctoring the declared step count trips the identity check.
  std::string t = bytes_;
  const std::string key = "\"steps\":";
  const auto pos = t.find(key);
  ASSERT_NE(pos, std::string::npos);
  t[pos + key.size() + 1] = '9';
  expect_rejected(t);
}

TEST_F(SessionCheckpointNegative, ScenarioMismatchesAreRejected) {
  // Different duration.
  {
    Scenario other = s_;
    other.opts.duration_hours = 8.0;
    std::istringstream in(bytes_);
    EXPECT_THROW(Session::restore(in, other.sats, other.stations, nullptr,
                                  other.opts),
                 std::invalid_argument);
  }
  // Different fault plan (options CRC catches trajectory-shaping drift).
  {
    Scenario other = s_;
    other.opts.faults = faults::make_profile("churn", 7, 12);
    std::istringstream in(bytes_);
    EXPECT_THROW(Session::restore(in, other.sats, other.stations, nullptr,
                                  other.opts),
                 std::invalid_argument);
  }
  // Different fleet size.
  {
    Scenario other = s_;
    other.sats.pop_back();
    std::istringstream in(bytes_);
    EXPECT_THROW(Session::restore(in, other.sats, other.stations, nullptr,
                                  other.opts),
                 std::invalid_argument);
  }
}

// A length prefix that claims more elements than the section has bytes
// left must be rejected before anything is sized from it — not surface
// as std::bad_alloc / std::length_error or a multi-GB allocation.  One
// count per section of the tenant/churn fixture that holds one, at its
// byte offset in the section body.  The geometry and matcher sections are
// empty (SessionCheckpointEmptySections below).
TEST(SessionCheckpointCounts, OversizedCountsAreRejectedInEverySection) {
  const Scenario s = tenant_churn_scenario();
  const std::string bytes =
      read_fixture("checkpoint_v4_tenants_churn_1h.ckpt");
  CheckpointView view;
  ASSERT_FALSE(read_checkpoint(bytes, &view).has_value());
  const std::pair<const char*, std::size_t> first_counts[] = {
      // The delivery ages (a LEB128 column).
      {"result", 0},
      // Satellite 0's chunks, after the fleet size.
      {"queues", 8},
      // Station 0's edge items: after the station count, 12 served i32s,
      // the churn flag + 12-station down mask, and the backhaul-fault and
      // edge-queue flags.
      {"stations", 8 + 12 * 4 + 1 + 12 + 1 + 1},
      // After plan_origin.
      {"planner", 8},
      // The section holds no sequence; its tenant count, after the flag,
      // is checked against the session's instead.
      {"tenants", 1},
      // After the registry flag.
      {"metrics", 1},
  };
  // Plus the two empty sections.
  ASSERT_EQ(std::size(first_counts) + 2, checkpoint_section_names().size());
  for (const auto& [section, offset] : first_counts) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 40, std::uint64_t{1} << 62,
          std::uint64_t{100'000'000}}) {
      std::vector<std::pair<std::string, std::string>> sections;
      for (const auto& [name, body] : view.sections) {
        sections.emplace_back(name, std::string(body));
      }
      std::string* body = nullptr;
      for (auto& [name, b] : sections) {
        if (name == section) body = &b;
      }
      ASSERT_NE(body, nullptr);
      ASSERT_LE(offset + 8, body->size()) << section;
      // A real (small) little-endian count has zero high bytes.
      ASSERT_EQ(body->substr(offset + 2, 6), std::string(6, '\0'))
          << section << ": offset is not a count";
      BinaryWriter patched;
      patched.u64(count);
      body->replace(offset, 8, patched.data());
      std::stringstream reframed;
      write_checkpoint(reframed, view.header, sections);
      EXPECT_THROW(Session::restore(reframed, s.sats, s.stations, nullptr,
                                    s.opts),
                   std::invalid_argument)
          << section << " count " << count;
    }
  }
}

// --- Index range checks: a CRC-valid checkpoint whose section carries a
// satellite or station index past the fleet is rejected on read, before a resumed step indexes a vector
// with it.  Each test patches one field of a fresh 1 h snapshot and
// re-frames the file with a valid CRC through write_checkpoint.

std::string snapshot_at_one_hour(const Scenario& s) {
  Session session(s.sats, s.stations, nullptr, s.opts);
  session.run_until_hours(1.0);
  std::stringstream cp;
  session.snapshot(cp);
  return cp.str();
}

/// Offset of the read position of `r` within `body`.
std::size_t offset_of(const std::string& body, const BinaryReader& r) {
  return body.size() - r.remaining();
}

std::uint64_t read_u64(BinaryReader& r) {
  std::uint64_t v = 0;
  r.u64(v);
  return v;
}

void put_i32(std::string* body, std::size_t at, std::int32_t v) {
  BinaryWriter w;
  w.i32(v);
  ASSERT_LE(at + 4, body->size());
  body->replace(at, 4, w.data());
}

void put_u64(std::string* body, std::size_t at, std::uint64_t v) {
  BinaryWriter w;
  w.u64(v);
  ASSERT_LE(at + 8, body->size());
  body->replace(at, 8, w.data());
}

/// Restores `bytes` with section `section` rewritten by `patch` (which
/// returns false when the snapshot lacks the field) and requires
/// std::invalid_argument.
void expect_patch_rejected(const Scenario& s, const std::string& bytes,
                           const char* section,
                           const std::function<bool(std::string*)>& patch) {
  CheckpointView view;
  ASSERT_FALSE(read_checkpoint(bytes, &view).has_value());
  std::vector<std::pair<std::string, std::string>> sections;
  for (const auto& [name, body] : view.sections) {
    sections.emplace_back(name, std::string(body));
  }
  bool patched = false;
  for (auto& [name, body] : sections) {
    if (name == section) patched = patch(&body);
  }
  ASSERT_TRUE(patched) << section << ": the snapshot lacks the field";
  std::stringstream reframed;
  write_checkpoint(reframed, view.header, sections);
  EXPECT_THROW(Session::restore(reframed, s.sats, s.stations, nullptr,
                                s.opts),
               std::invalid_argument)
      << section;
}

// Satellite and station indices are checked from both ends.  The
// delivery satellites are unsigned LEB128, so their low end is the
// largest u32.
constexpr std::int32_t kBadSat[] = {-1, 8};
constexpr std::int32_t kBadStation[] = {-1, 12};
constexpr std::uint32_t kBadDeliverySat[] = {8, 0xFFFFFFFFu};

/// The v4 `result` section up to the delivery satellites: the delivery
/// ledger, read back without its checks, and where the section goes on.
struct ResultHead {
  StepAges delivered;
  std::string rest;
};

ResultHead split_result(const std::string& body) {
  BinaryReader r(body);
  ResultHead head;
  r.leb128(head.delivered.age);
  r.leb128(head.delivered.per_step);
  head.rest = body.substr(offset_of(body, r));
  return head;
}

std::string join_result(ResultHead head) {
  BinaryWriter w;
  w.leb128(head.delivered.age);
  w.leb128(head.delivered.per_step);
  return w.take() + head.rest;
}

/// The step that recorded the first delivery (-1 with none).
std::int64_t first_delivery_step(const StepAges& ledger) {
  const auto it = std::ranges::find_if(
      ledger.per_step, [](std::uint32_t n) { return n > 0; });
  return it == ledger.per_step.end() ? -1 : it - ledger.per_step.begin();
}

TEST(SessionCheckpointIndices, DeliverySatelliteIsRangeChecked) {
  const Scenario s = golden_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  for (const std::uint32_t bad : kBadDeliverySat) {
    // The first delivery's satellite: the first value of the satellite
    // column, after the delivery ledger and that column's count.
    expect_patch_rejected(s, bytes, "result", [&](std::string* body) {
      ResultHead head = split_result(*body);
      if (head.delivered.size() == 0) return false;
      std::vector<std::uint32_t> sats;
      BinaryReader r(head.rest);
      r.leb128(sats);
      sats[0] = bad;
      BinaryWriter w;
      w.leb128(sats);
      head.rest = w.take() + head.rest.substr(offset_of(head.rest, r));
      *body = join_result(std::move(head));
      return true;
    });
  }
}

// The urgent flag is a 0/1 byte; any other value is rejected, as the
// satellite column's indices are.
TEST(SessionCheckpointIndices, DeliveryUrgentFlagIsRangeChecked) {
  const Scenario s = golden_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  // The first delivery's flag: after the delivery ledger, the satellite
  // column and the urgent column's count.
  expect_patch_rejected(s, bytes, "result", [](std::string* body) {
    ResultHead head = split_result(*body);
    if (head.delivered.size() == 0) return false;
    BinaryReader r(head.rest);
    std::vector<std::uint32_t> sats;
    r.leb128(sats);
    const std::size_t at = offset_of(head.rest, r) + 8;
    if (at >= head.rest.size()) return false;
    head.rest[at] = '\x02';
    *body = join_result(std::move(head));
    return true;
  });
}

// The delivery ledger's steps: every delivery starts at a step at or
// after 0, or at -1 (the initial-backlog epoch) when the scenario has a
// backlog; the per-step counts cover every step taken, once, and add up
// to the entries.  The cloud and ack ledgers share the same reader.
Scenario backlog_scenario() {
  Scenario s = golden_scenario();
  s.opts.initial_backlog_bytes = 2e9;
  s.opts.initial_backlog_age_hours = 3.25;
  return s;
}

/// Rewrites the first delivery's age to start it at step `start`.
bool start_first_delivery_at(std::string* body, std::int64_t start) {
  ResultHead head = split_result(*body);
  const std::int64_t d = first_delivery_step(head.delivered);
  if (d < 0) return false;
  head.delivered.age[0] = static_cast<std::uint32_t>(d - start);
  *body = join_result(std::move(head));
  return true;
}

TEST(SessionCheckpointIndices, CaptureStepBelowTheBacklogIsRejected) {
  const Scenario s = backlog_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  // Step -1 is the backlog's epoch, so the snapshot itself restores.
  std::istringstream in(bytes);
  EXPECT_NO_THROW(Session::restore(in, s.sats, s.stations, nullptr, s.opts));
  expect_patch_rejected(s, bytes, "result", [](std::string* body) {
    return start_first_delivery_at(body, -2);
  });
}

TEST(SessionCheckpointIndices, BacklogStepWithoutABacklogIsRejected) {
  const Scenario s = golden_scenario();
  ASSERT_EQ(s.opts.initial_backlog_bytes, 0.0);
  expect_patch_rejected(s, snapshot_at_one_hour(s), "result",
                        [](std::string* body) {
                          return start_first_delivery_at(body, -1);
                        });
}

TEST(SessionCheckpointIndices, PerStepCountsMustAddUpToTheEntries) {
  const Scenario s = golden_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  for (const int delta : {-1, 1}) {
    expect_patch_rejected(s, bytes, "result", [delta](std::string* body) {
      ResultHead head = split_result(*body);
      const std::int64_t d = first_delivery_step(head.delivered);
      if (d < 0) return false;
      head.delivered.per_step[static_cast<std::size_t>(d)] +=
          static_cast<std::uint32_t>(delta);
      *body = join_result(std::move(head));
      return true;
    });
  }
}

TEST(SessionCheckpointIndices, PerStepCountsCoverEveryStepTaken) {
  const Scenario s = golden_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  for (const bool extra : {true, false}) {
    expect_patch_rejected(s, bytes, "result", [extra](std::string* body) {
      ResultHead head = split_result(*body);
      std::vector<std::uint32_t>& per_step = head.delivered.per_step;
      if (per_step.empty()) return false;
      if (extra) {
        per_step.push_back(0);
      } else {
        // Fold the last step's entries into the one before.
        const std::uint32_t last = per_step.back();
        per_step.pop_back();
        if (per_step.empty()) return false;
        per_step.back() += last;
      }
      *body = join_result(std::move(head));
      return true;
    });
  }
}

/// Offset of the first edge of the first non-empty planned step.
std::optional<std::size_t> first_planned_edge(const std::string& body) {
  BinaryReader r(body);
  std::int64_t origin = 0;
  r.i64(origin);
  for (std::uint64_t k = read_u64(r); k > 0; --k) {
    if (read_u64(r) > 0) return offset_of(body, r);
  }
  return std::nullopt;
}

TEST(SessionCheckpointIndices, PlannerEdgesAreRangeChecked) {
  const Scenario s = golden_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  for (const std::int32_t bad : kBadSat) {
    expect_patch_rejected(s, bytes, "planner", [&](std::string* body) {
      const auto at = first_planned_edge(*body);
      if (at.has_value()) put_i32(body, *at, bad);
      return at.has_value();
    });
  }
  for (const std::int32_t bad : kBadStation) {
    expect_patch_rejected(s, bytes, "planner", [&](std::string* body) {
      const auto at = first_planned_edge(*body);
      if (at.has_value()) put_i32(body, *at + 4, bad);
      return at.has_value();
    });
  }
}

TEST(SessionCheckpointIndices, PlanOriginIsRangeChecked) {
  const Scenario s = golden_scenario();
  const std::string bytes = snapshot_at_one_hour(s);
  // Before "no plan" (-1), and past the snapshot's step (60).
  for (const std::int64_t bad : {std::int64_t{-2}, std::int64_t{61}}) {
    expect_patch_rejected(s, bytes, "planner", [&](std::string* body) {
      put_u64(body, 0, static_cast<std::uint64_t>(bad));
      return true;
    });
  }
}

// The geometry and matcher sections are written empty; a CRC-valid file
// that carries bytes in either is rejected as trailing section bytes.
TEST(SessionCheckpointEmptySections, NonEmptyGeometryOrMatcherIsRejected) {
  for (const Scenario& s : {golden_scenario(), tenant_churn_scenario()}) {
    const std::string bytes = snapshot_at_one_hour(s);
    CheckpointView view;
    ASSERT_FALSE(read_checkpoint(bytes, &view).has_value());
    for (const char* section : {"geometry", "matcher"}) {
      EXPECT_TRUE(view.section(section).empty()) << section;
      // One stray byte, and what an empty count would look like.
      for (const std::size_t n : {std::size_t{1}, std::size_t{8}}) {
        expect_patch_rejected(s, bytes, section, [&](std::string* body) {
          body->append(n, '\0');
          return true;
        });
      }
    }
  }
}

TEST_F(SessionCheckpointNegative, ThreadCountChangeIsAccepted) {
  // parallel.* is execution-irrelevant by design: restoring under a
  // different thread count must succeed.
  Scenario other = s_;
  other.opts.parallel.num_threads = 4;
  std::istringstream in(bytes_);
  EXPECT_NO_THROW(
      Session::restore(in, other.sats, other.stations, nullptr, other.opts));
}

}  // namespace
}  // namespace dgs::core
