// Property sweep: SGP4 must stay physical and agree with the independent
// RK4-J2 integrator across the whole LEO parameter envelope the synthetic
// constellation draws from (and beyond it).
#include <gtest/gtest.h>

#include <cmath>

#include "src/orbit/sgp4.h"
#include "src/orbit/tle.h"
#include "src/util/constants.h"
#include "tests/numerical.h"

namespace dgs::orbit {
namespace {

struct OrbitCase {
  double alt_km;
  double inclination_deg;
  double eccentricity;
  double bstar;
};

Tle make_tle(const OrbitCase& c) {
  Tle tle;
  tle.satnum = 99000;
  tle.intl_designator = "25001A";
  tle.epoch = util::Epoch(util::DateTime{2025, 6, 1, 0, 0, 0.0});
  const double a = util::wgs72::kEarthRadiusKm + c.alt_km;
  const double n_rad_s =
      std::sqrt(util::wgs72::kMu / (a * a * a));
  tle.mean_motion_revs_per_day = n_rad_s * 86400.0 / util::kTwoPi;
  tle.inclination_deg = c.inclination_deg;
  tle.raan_deg = 123.4;
  tle.eccentricity = c.eccentricity;
  tle.arg_perigee_deg = 45.6;
  tle.mean_anomaly_deg = 210.7;
  tle.bstar = c.bstar;
  return tle;
}

class Sgp4Envelope : public ::testing::TestWithParam<OrbitCase> {};

TEST_P(Sgp4Envelope, RadiusStaysInEllipseBand) {
  const Tle tle = make_tle(GetParam());
  const Sgp4 prop(tle);
  const double a = tle.semi_major_axis_km();
  const double e = tle.eccentricity;
  for (double t = 0.0; t <= 1440.0; t += 31.0) {
    const double r = prop.propagate(t).position_km.norm();
    EXPECT_GT(r, a * (1.0 - e) - 25.0) << "t=" << t;
    EXPECT_LT(r, a * (1.0 + e) + 25.0) << "t=" << t;
  }
}

TEST_P(Sgp4Envelope, AgreesWithRk4OverTwoOrbits) {
  const Tle tle = make_tle(GetParam());
  const Sgp4 prop(tle);
  const TemeState s0 = prop.propagate(0.0);
  const double horizon_min = 2.0 * prop.period_minutes();

  StateVector sv{s0.position_km, s0.velocity_km_s};
  sv = propagate_rk4_j2(sv, horizon_min * 60.0, 5.0);
  const TemeState s1 = prop.propagate(horizon_min);
  // Drag over 2 orbits is < 100 m for these B*; J3/J4 differences stay in
  // the km range.
  EXPECT_LT((s1.position_km - sv.position_km).norm(), 8.0)
      << "alt=" << GetParam().alt_km << " inc=" << GetParam().inclination_deg;
}

TEST_P(Sgp4Envelope, TleTextRoundTripPreservesTrajectory) {
  const Tle tle = make_tle(GetParam());
  const Tle back =
      parse_tle(format_tle_line1(tle), format_tle_line2(tle));
  const Sgp4 p1(tle), p2(back);
  for (double t : {0.0, 47.0, 360.0}) {
    const double err =
        (p1.propagate(t).position_km - p2.propagate(t).position_km).norm();
    // Text truncation (1e-8 rev/day, 1e-4 deg) costs at most ~200 m here.
    EXPECT_LT(err, 0.5) << "t=" << t;
  }
}

TEST_P(Sgp4Envelope, GroundSpeedIsLeoTypical) {
  const Sgp4 prop(make_tle(GetParam()));
  for (double t : {0.0, 200.0, 777.0}) {
    const double v = prop.propagate(t).velocity_km_s.norm();
    EXPECT_GT(v, 7.2) << "t=" << t;
    EXPECT_LT(v, 8.1) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LeoEnvelope, Sgp4Envelope,
    ::testing::Values(
        OrbitCase{450.0, 97.2, 0.0005, 3e-5},   // low SSO
        OrbitCase{600.0, 97.8, 0.0020, 1e-5},   // high SSO
        OrbitCase{500.0, 51.6, 0.0010, 5e-5},   // ISS rideshare
        OrbitCase{550.0, 82.0, 0.0015, 2e-5},   // high inclination
        OrbitCase{480.0, 66.0, 0.0008, 4e-5},   // mid inclination
        OrbitCase{420.0, 45.0, 0.0025, 6e-5},   // low inclination
        OrbitCase{590.0, 89.9, 0.0003, 1e-5},   // near-polar
        OrbitCase{520.0, 97.5, 0.0100, 3e-5},   // slightly eccentric
        OrbitCase{700.0, 98.2, 0.0012, 8e-6},   // upper LEO
        OrbitCase{380.0, 51.6, 0.0005, 9e-5})); // low + draggy

}  // namespace
}  // namespace dgs::orbit
