// Spatial visibility index vs the brute-force sweep: identical output.
//
// The index (latitude-band scatter + conservative cone cull, DESIGN.md
// §14) may only ever discard pairs the precise elevation test would
// reject, so the contact graph must match the brute-force sweep bit for
// bit — same edges, same order, same doubles — across constellations,
// epochs, masks, and engine configurations.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/visibility.h"
#include "src/util/angles.h"
#include "src/util/rng.h"

namespace dgs::core {
namespace {

using util::deg2rad;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

struct Network {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
};

Network make_network(int num_sats, int num_stations, std::uint64_t seed) {
  groundseg::NetworkOptions opts;
  opts.num_satellites = num_sats;
  opts.num_stations = num_stations;
  opts.seed = seed;
  return {groundseg::generate_constellation(opts, kEpoch),
          groundseg::generate_dgs_stations(opts)};
}

void expect_identical_contacts(const VisibilityEngine& brute,
                               const VisibilityEngine& indexed,
                               const util::Epoch& t) {
  const std::vector<ContactEdge> a = brute.contacts(t);
  const std::vector<ContactEdge> b = indexed.contacts(t);
  ASSERT_EQ(a.size(), b.size()) << "at " << t.to_string();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sat, b[i].sat);
    EXPECT_EQ(a[i].station, b[i].station);
    // Bitwise equality: the index must not perturb a single ulp.
    EXPECT_EQ(a[i].elevation_rad, b[i].elevation_rad);
    EXPECT_EQ(a[i].range_km, b[i].range_km);
    EXPECT_EQ(a[i].predicted_rate_bps, b[i].predicted_rate_bps);
    EXPECT_EQ(a[i].modcod, b[i].modcod);
  }
}

TEST(VisibilityIndex, MatchesBruteForceOverRandomizedEpochs) {
  for (const std::uint64_t seed : {1u, 3u, 9u}) {
    const Network net = make_network(24, 16, seed);
    VisibilityEngine brute(net.sats, net.stations, nullptr);
    brute.set_spatial_index(false);
    VisibilityEngine indexed(net.sats, net.stations, nullptr);
    ASSERT_TRUE(indexed.spatial_index());
    util::Rng rng(seed * 1000 + 17);
    for (int trial = 0; trial < 25; ++trial) {
      const util::Epoch t = kEpoch.plus_seconds(rng.uniform(0.0, 86400.0));
      expect_identical_contacts(brute, indexed, t);
    }
  }
}

TEST(VisibilityIndex, MatchesBruteForceAcrossElevationMaskBoundaries) {
  // Stress the cull margin: masks from "horizon" (0 deg, where the
  // visibility cone is widest) up to near-zenith-only (75 deg, where it
  // almost closes), including the paper's 5-40 deg operating range.
  Network net = make_network(32, 12, 11);
  const double masks_deg[] = {0.0, 1.0, 5.0, 10.0, 25.0, 40.0, 60.0, 75.0};
  for (std::size_t g = 0; g < net.stations.size(); ++g) {
    net.stations[g].min_elevation_rad =
        deg2rad(masks_deg[g % (sizeof(masks_deg) / sizeof(masks_deg[0]))]);
  }
  VisibilityEngine brute(net.sats, net.stations, nullptr);
  brute.set_spatial_index(false);
  VisibilityEngine indexed(net.sats, net.stations, nullptr);
  for (int m = 0; m < 120; m += 3) {
    expect_identical_contacts(brute, indexed, kEpoch.plus_seconds(m * 60.0));
  }
}

TEST(VisibilityIndex, MatchesBruteForceWithOwnerConstraints) {
  Network net = make_network(20, 10, 4);
  for (std::size_t g = 0; g < net.stations.size(); ++g) {
    net.stations[g].constraints =
        groundseg::DownlinkConstraints(net.sats.size());
    // Each station denies a different slice of the fleet.
    for (std::size_t s = g; s < net.sats.size(); s += 3) {
      net.stations[g].constraints.deny(s);
    }
  }
  VisibilityEngine brute(net.sats, net.stations, nullptr);
  brute.set_spatial_index(false);
  VisibilityEngine indexed(net.sats, net.stations, nullptr);
  for (int m = 0; m < 200; m += 7) {
    expect_identical_contacts(brute, indexed, kEpoch.plus_seconds(m * 60.0));
  }
}

TEST(VisibilityIndex, ThreadPoolAndCacheDoNotChangeIndexedOutput) {
  const Network net = make_network(28, 14, 6);
  VisibilityEngine plain(net.sats, net.stations, nullptr);
  VisibilityEngine tuned(net.sats, net.stations, nullptr);
  util::ParallelConfig cfg;
  cfg.num_threads = 4;
  cfg.chunk_size = 3;
  util::ThreadPool pool(cfg);
  tuned.set_thread_pool(&pool);
  // The second pass re-queries each epoch through the reused scratch.
  for (int pass = 0; pass < 2; ++pass) {
    for (int m = 0; m < 30; m += 2) {
      const util::Epoch t = kEpoch.plus_seconds(m * 60.0);
      const auto a = plain.contacts(t);
      const auto b = tuned.contacts(t);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].sat, b[i].sat);
        EXPECT_EQ(a[i].station, b[i].station);
        EXPECT_EQ(a[i].elevation_rad, b[i].elevation_rad);
        EXPECT_EQ(a[i].range_km, b[i].range_km);
      }
    }
  }
}

TEST(VisibilityIndex, CullCountersAreConsistent) {
  const Network net = make_network(30, 12, 2);
  obs::Registry registry;
  VisibilityEngine engine(net.sats, net.stations, nullptr);
  engine.set_metrics(&registry);
  int edges = 0;
  for (int m = 0; m < 60; m += 5) {
    edges += static_cast<int>(
        engine.contacts(kEpoch.plus_seconds(m * 60.0)).size());
  }
  const double candidates =
      registry.counter("dgs_vis_cull_candidates_total", "")->value();
  const double precise =
      registry.counter("dgs_vis_cull_precise_total", "")->value();
  // The cull can only narrow: candidates >= precise tests >= edges kept.
  EXPECT_GE(candidates, precise);
  EXPECT_GE(precise, static_cast<double>(edges));
  EXPECT_GT(candidates, 0.0);
  // And it must actually cull something vs the all-pairs product.
  const double all_pairs = 12.0 * 30.0 * 12.0;  // steps x sats x stations
  EXPECT_LT(candidates, all_pairs);
}

}  // namespace
}  // namespace dgs::core
