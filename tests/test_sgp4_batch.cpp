// Batched SGP4 vs the scalar propagator: bit-identical by contract.
#include <gtest/gtest.h>

#include <vector>

#include "src/groundseg/network_gen.h"
#include "src/orbit/frames.h"
#include "src/orbit/sgp4.h"
#include "src/orbit/sgp4_batch.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace dgs::orbit {
namespace {

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});

std::vector<Tle> make_fleet(int n, std::uint64_t seed) {
  groundseg::NetworkOptions opts;
  opts.num_satellites = n;
  opts.num_stations = 4;
  opts.seed = seed;
  std::vector<Tle> tles;
  for (const groundseg::SatelliteConfig& sc :
       groundseg::generate_constellation(opts, kEpoch)) {
    tles.push_back(sc.tle);
  }
  return tles;
}

TEST(Sgp4Batch, PropagateOneMatchesScalarBitwise) {
  const std::vector<Tle> tles = make_fleet(17, 42);
  const Sgp4Batch batch(tles);
  ASSERT_EQ(batch.size(), 17);
  util::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const util::Epoch t = kEpoch.plus_seconds(rng.uniform(0.0, 86400.0));
    for (int s = 0; s < batch.size(); ++s) {
      const Sgp4 scalar(tles[static_cast<std::size_t>(s)]);
      const TemeState a = scalar.propagate_to(t);
      const TemeState b = batch.propagate_one(s, t);
      EXPECT_EQ(a.position_km, b.position_km);
      EXPECT_EQ(a.velocity_km_s, b.velocity_km_s);
    }
  }
}

TEST(Sgp4Batch, PositionsTemeMatchScalar) {
  const std::vector<Tle> tles = make_fleet(23, 5);
  const Sgp4Batch batch(tles);
  const util::Epoch t = kEpoch.plus_seconds(4321.0);
  std::vector<util::Vec3> out(static_cast<std::size_t>(batch.size()));
  batch.positions_teme(t, out);
  for (int s = 0; s < batch.size(); ++s) {
    const Sgp4 scalar(tles[static_cast<std::size_t>(s)]);
    EXPECT_EQ(out[static_cast<std::size_t>(s)],
              scalar.propagate_to(t).position_km);
  }
}

TEST(Sgp4Batch, PositionsEcefMatchPerSatelliteRotation) {
  // The batch shares one GMST evaluation; it must equal per-satellite
  // teme_to_ecef calls bit for bit.
  const std::vector<Tle> tles = make_fleet(11, 8);
  const Sgp4Batch batch(tles);
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const util::Epoch t = kEpoch.plus_seconds(rng.uniform(0.0, 7200.0));
    std::vector<util::Vec3> out(static_cast<std::size_t>(batch.size()));
    batch.positions_ecef(t, out);
    for (int s = 0; s < batch.size(); ++s) {
      const Sgp4 scalar(tles[static_cast<std::size_t>(s)]);
      EXPECT_EQ(out[static_cast<std::size_t>(s)],
                teme_to_ecef(scalar.propagate_to(t).position_km, t));
    }
  }
}

TEST(Sgp4Batch, ThreadCountDoesNotChangeOutput) {
  const std::vector<Tle> tles = make_fleet(37, 13);
  const Sgp4Batch batch(tles);
  const util::Epoch t = kEpoch.plus_seconds(600.0);
  std::vector<util::Vec3> serial(static_cast<std::size_t>(batch.size()));
  batch.positions_ecef(t, serial);
  for (const int threads : {2, 3, 4}) {
    util::ParallelConfig cfg;
    cfg.num_threads = threads;
    cfg.chunk_size = 5;
    util::ThreadPool pool(cfg);
    std::vector<util::Vec3> parallel(static_cast<std::size_t>(batch.size()));
    batch.positions_ecef(t, parallel, &pool);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(Sgp4Batch, EpochAccessorMatchesTle) {
  const std::vector<Tle> tles = make_fleet(5, 21);
  const Sgp4Batch batch(tles);
  for (int s = 0; s < batch.size(); ++s) {
    EXPECT_EQ(batch.epoch(s).jd(),
              tles[static_cast<std::size_t>(s)].epoch.jd());
  }
}

}  // namespace
}  // namespace dgs::orbit
