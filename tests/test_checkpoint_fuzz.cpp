// Seeded mutation fuzz of the dgs.checkpoint.v5 section readers.
//
// Each case takes a checked-in v5 fixture, mutates its section bodies
// (byte flips, splices, count patches, LEB128 patches, truncations) and
// re-frames the result with a valid CRC through write_checkpoint, so that
// the mutation reaches the section readers rather than the CRC check.
// Restoring it must either succeed and re-snapshot to exactly the
// re-framed bytes, or throw std::invalid_argument.  Anything else (a
// crash, std::bad_alloc, std::length_error, an ASan or UBSan report in the
// asan-ubsan preset) fails.  The seeds are fixed, so a failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/session.h"
#include "src/faults/profiles.h"
#include "src/groundseg/network_gen.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

struct Scenario {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  SimulationOptions opts;
};

// The two scenarios the fixtures were written from (test_session.cpp):
// storm faults with hourly look-ahead, and per-instant tenants under
// churn with a 50 Mbps backhaul.
Scenario storm_lookahead() {
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

Scenario tenants_churn() {
  Scenario s = storm_lookahead();
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

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(DGS_TEST_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

using Sections = std::vector<std::pair<std::string, std::string>>;

enum Mutation { kFlip, kSplice, kCount, kLeb128, kTruncate, kNumMutations };

/// Applies one seeded mutation to one section body; returns its name.
const char* mutate(util::Rng& rng, Sections* sections) {
  // Mostly by size, so the large sections take most of the mutations,
  // but every section now and then, the empty ones included.
  std::size_t total = 0;
  for (const auto& [name, body] : *sections) total += body.size();
  std::string* body = nullptr;
  if (total > 0 && rng.chance(0.75)) {
    auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
    for (auto& [name, b] : *sections) {
      if (at < b.size()) {
        body = &b;
        break;
      }
      at -= b.size();
    }
  } else {
    body = &(*sections)[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(
                                    sections->size()) - 1))]
                .second;
  }
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  auto kind = static_cast<Mutation>(rng.uniform_int(0, kNumMutations - 1));
  if (body->empty() && kind != kSplice) kind = kSplice;
  switch (kind) {
    case kFlip: {
      const std::size_t at = pick(body->size());
      (*body)[at] = static_cast<char>(
          (*body)[at] ^ static_cast<char>(rng.uniform_int(1, 255)));
      return "flip";
    }
    case kSplice: {
      // Bytes from anywhere in the payload, written over or inserted.
      const Sections& all = *sections;
      const std::string& from = all[pick(all.size())].second;
      std::string piece;
      if (!from.empty()) {
        const std::size_t at = pick(from.size());
        piece = from.substr(
            at, static_cast<std::size_t>(rng.uniform_int(1, 24)));
      } else {
        piece.assign(static_cast<std::size_t>(rng.uniform_int(1, 9)), '\0');
      }
      const std::size_t at = body->empty() ? 0 : pick(body->size() + 1);
      if (rng.chance(0.5)) {
        body->insert(at, piece);
      } else {
        body->replace(at, piece.size(), piece);
      }
      return "splice";
    }
    case kCount: {
      // A u64 at an offset where one is likely to be a length prefix
      // (six high zero bytes), else anywhere.
      std::vector<std::size_t> counts;
      for (std::size_t i = 0; i + 8 <= body->size(); ++i) {
        if (std::all_of(body->begin() + static_cast<std::ptrdiff_t>(i + 2),
                        body->begin() + static_cast<std::ptrdiff_t>(i + 8),
                        [](char c) { return c == '\0'; })) {
          counts.push_back(i);
        }
      }
      const std::size_t at =
          !counts.empty() && rng.chance(0.8) ? counts[pick(counts.size())]
                                             : pick(body->size());
      const std::uint64_t values[] = {
          0,
          1,
          body->size(),
          body->size() + 1,
          std::uint64_t{1} << 32,
          std::uint64_t{1} << 40,
          std::uint64_t{1} << 62,
          ~std::uint64_t{0},
          static_cast<std::uint64_t>(rng.uniform_int(2, 4096))};
      BinaryWriter w;
      w.u64(values[pick(std::size(values))]);
      body->replace(at, std::min<std::size_t>(8, body->size() - at),
                    w.data());
      return "count";
    }
    case kLeb128: {
      // Continuation, overlong and out-of-range bytes where the LEB128
      // columns live (the result section opens with them).
      const char bytes[] = {'\x80', '\xff', '\x00', '\x7f', '\x10', '\x8f'};
      const std::size_t at = pick(std::min<std::size_t>(body->size(), 512));
      (*body)[at] = bytes[pick(std::size(bytes))];
      return "leb128";
    }
    case kTruncate:
    case kNumMutations:
      break;
  }
  body->resize(pick(body->size()));
  return "truncate";
}

void fuzz_fixture(const Scenario& s, const std::string& name,
                  std::uint64_t seed, int mutations) {
  const std::string bytes = read_fixture(name);
  ASSERT_FALSE(bytes.empty()) << name;
  CheckpointView view;
  ASSERT_FALSE(read_checkpoint(bytes, &view).has_value()) << name;
  Sections pristine;
  for (const auto& [section, body] : view.sections) {
    pristine.emplace_back(section, std::string(body));
  }

  util::Rng rng(seed);
  int rejected = 0;
  int restored = 0;
  for (int i = 0; i < mutations; ++i) {
    Sections sections = pristine;
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    std::string what;
    for (int k = 0; k < rounds; ++k) {
      what += std::string(k > 0 ? "+" : "") + mutate(rng, &sections);
    }
    std::ostringstream framed;
    write_checkpoint(framed, view.header, sections);
    const std::string input = framed.str();

    obs::Registry registry;
    SimulationOptions opts = s.opts;
    opts.metrics = &registry;
    std::istringstream in(input);
    std::unique_ptr<Session> session;
    try {
      session = Session::restore(in, s.sats, s.stations, nullptr, opts);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " mutation " << i << " (" << what
                    << "): " << e.what();
      continue;
    }
    ++restored;
    std::ostringstream again;
    session->snapshot(again);
    // Not EXPECT_EQ: a mismatch would print two binary strings.
    EXPECT_TRUE(again.str() == input)
        << name << " mutation " << i << " (" << what
        << ") restored but re-snapshots differently";
  }
  EXPECT_GT(rejected, 0) << name;
  EXPECT_GT(restored, 0) << name;
}

TEST(CheckpointFuzz, StormLookaheadV5MutationsRestoreExactlyOrThrow) {
  fuzz_fixture(storm_lookahead(), "checkpoint_v5_storm_lookahead_1h.ckpt",
               0x5eed0001, 400);
}

TEST(CheckpointFuzz, TenantsChurnV5MutationsRestoreExactlyOrThrow) {
  fuzz_fixture(tenants_churn(), "checkpoint_v5_tenants_churn_1h.ckpt",
               0x5eed0002, 400);
}

}  // namespace
}  // namespace dgs::core
