// SGP4 propagator: canonical verification vectors, physics invariants, and
// an independent cross-check against RK4 numerical integration of the
// J2-perturbed two-body problem.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/orbit/sgp4.h"
#include "src/orbit/tle.h"
#include "src/util/constants.h"
#include "tests/numerical.h"

namespace dgs::orbit {
namespace {

constexpr const char* kVanguardL1 =
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
constexpr const char* kVanguardL2 =
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";
constexpr const char* kIssL1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssL2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

void expect_state_near(const TemeState& s, double x, double y, double z,
                       double vx, double vy, double vz, double pos_tol_km,
                       double vel_tol_km_s) {
  EXPECT_NEAR(s.position_km.x, x, pos_tol_km);
  EXPECT_NEAR(s.position_km.y, y, pos_tol_km);
  EXPECT_NEAR(s.position_km.z, z, pos_tol_km);
  EXPECT_NEAR(s.velocity_km_s.x, vx, vel_tol_km_s);
  EXPECT_NEAR(s.velocity_km_s.y, vy, vel_tol_km_s);
  EXPECT_NEAR(s.velocity_km_s.z, vz, vel_tol_km_s);
}

// Reference values from the standard SGP4 verification output (Vallado,
// "Revisiting Spacetrack Report #3", satellite 00005, WGS-72).
TEST(Sgp4, VerificationVectorSat00005) {
  const Sgp4 prop(parse_tle(kVanguardL1, kVanguardL2));
  expect_state_near(prop.propagate(0.0), 7022.46529266, -1400.08296755,
                    0.03995155, 1.893841015, 6.405893759, 4.534807250, 1e-5,
                    1e-8);
  expect_state_near(prop.propagate(360.0), -7154.03120202, -3783.17682504,
                    -3536.19412294, 4.741887409, -4.151817765, -2.093935425,
                    1e-5, 1e-8);
  expect_state_near(prop.propagate(720.0), -7134.59340119, 6531.68641334,
                    3260.27186483, -4.113793027, -2.911922039, -2.557327851,
                    1e-5, 1e-8);
}

TEST(Sgp4, RecoveredMeanMotionIsCloseToKozai) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const Sgp4 prop(t);
  const double kozai_rad_min =
      t.mean_motion_revs_per_day * util::kTwoPi / 1440.0;
  // Un-Kozai correction is a small (<0.1%) adjustment for LEO.
  EXPECT_NEAR(prop.mean_motion_rad_per_min() / kozai_rad_min, 1.0, 1e-3);
  EXPECT_NEAR(prop.period_minutes(), t.period_minutes(), 0.1);
}

TEST(Sgp4, OrbitalRadiusWithinEllipseBounds) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const Sgp4 prop(t);
  const double a = t.semi_major_axis_km();
  for (double ts = 0.0; ts <= 720.0; ts += 7.0) {
    const double r = prop.propagate(ts).position_km.norm();
    // Allow ~20 km slack for short-period J2 oscillation of the osculating
    // radius around the mean ellipse.
    EXPECT_GT(r, a * (1.0 - t.eccentricity) - 20.0) << "t=" << ts;
    EXPECT_LT(r, a * (1.0 + t.eccentricity) + 20.0) << "t=" << ts;
  }
}

TEST(Sgp4, PeriodicityOfGeometry) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const Sgp4 prop(t);
  const double period_min = prop.period_minutes();
  const double r0 = prop.propagate(0.0).position_km.norm();
  const double r1 = prop.propagate(period_min).position_km.norm();
  // After one orbit the radius returns near its initial value.
  EXPECT_NEAR(r0, r1, 5.0);
}

TEST(Sgp4, SpeedConsistentWithVisViva) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const Sgp4 prop(t);
  const double a = t.semi_major_axis_km();
  for (double ts : {0.0, 13.0, 47.0, 200.0}) {
    const TemeState s = prop.propagate(ts);
    const double r = s.position_km.norm();
    const double v_expected =
        std::sqrt(util::wgs72::kMu * (2.0 / r - 1.0 / a));
    EXPECT_NEAR(s.velocity_km_s.norm(), v_expected, 0.02) << "t=" << ts;
  }
}

TEST(Sgp4, DeterministicRepeatedCalls) {
  const Sgp4 prop(parse_tle(kIssL1, kIssL2));
  const TemeState a = prop.propagate(123.456);
  const TemeState b = prop.propagate(123.456);
  EXPECT_EQ(a.position_km, b.position_km);
  EXPECT_EQ(a.velocity_km_s, b.velocity_km_s);
}

TEST(Sgp4, BackwardPropagationWorks) {
  const Sgp4 prop(parse_tle(kIssL1, kIssL2));
  const double r = prop.propagate(-60.0).position_km.norm();
  EXPECT_GT(r, 6600.0);
  EXPECT_LT(r, 6900.0);
}

TEST(Sgp4, RejectsDeepSpaceElementSets) {
  // A Molniya-type 12 h orbit (period >= 225 min) requires SDP4.
  Tle t = parse_tle(kIssL1, kIssL2);
  t.mean_motion_revs_per_day = 2.0;
  t.eccentricity = 0.7;
  EXPECT_THROW(Sgp4{t}, std::domain_error);
}

TEST(Sgp4, ReportsDecay) {
  // An absurdly draggy satellite at very low altitude decays quickly.
  Tle t = parse_tle(kIssL1, kIssL2);
  t.mean_motion_revs_per_day = 16.6;  // ~180 km altitude
  t.bstar = 0.1;
  const Sgp4 prop(t);
  EXPECT_THROW(prop.propagate(10000.0), std::domain_error);
}

// Cross-validation: SGP4 vs an independent RK4 integration of two-body + J2
// dynamics, started from the SGP4 epoch state.  Drag and higher zonal terms
// are negligible for the ISS over these horizons, so the trajectories must
// agree to a few km after 2 orbits and a few tens of km after a day.
class Sgp4NumericalCrossCheck : public ::testing::TestWithParam<double> {};

TEST_P(Sgp4NumericalCrossCheck, AgreesWithRk4J2) {
  const double horizon_min = GetParam();
  const Sgp4 prop(parse_tle(kIssL1, kIssL2));
  const TemeState s0 = prop.propagate(0.0);

  StateVector sv{s0.position_km, s0.velocity_km_s};
  sv = propagate_rk4_j2(sv, horizon_min * 60.0, 5.0);

  const TemeState s1 = prop.propagate(horizon_min);
  const double err_km = (s1.position_km - sv.position_km).norm();
  // Error grows roughly linearly (along-track) with time.
  const double tol_km = 2.0 + horizon_min * 0.03;
  EXPECT_LT(err_km, tol_km) << "horizon " << horizon_min << " min";
}

INSTANTIATE_TEST_SUITE_P(Horizons, Sgp4NumericalCrossCheck,
                         ::testing::Values(10.0, 45.0, 92.0, 184.0, 360.0));

TEST(NumericalPropagator, TotalEnergyConserved) {
  // RK4 sanity: the J2 field is conservative and static in the inertial
  // frame, so total specific energy v^2/2 + U(r) is an exact invariant
  // (up to integration error).
  const Sgp4 prop(parse_tle(kIssL1, kIssL2));
  const TemeState s0 = prop.propagate(0.0);
  StateVector sv{s0.position_km, s0.velocity_km_s};

  auto total_energy = [](const StateVector& s) {
    using namespace util::wgs72;
    const double r = s.position_km.norm();
    const double sin2lat = (s.position_km.z * s.position_km.z) / (r * r);
    // U = -mu/r * [1 - J2 (Re/r)^2 * (3 sin^2(lat) - 1)/2]
    const double u = -kMu / r *
                     (1.0 - kJ2 * (kEarthRadiusKm / r) * (kEarthRadiusKm / r) *
                                (3.0 * sin2lat - 1.0) / 2.0);
    return s.velocity_km_s.dot(s.velocity_km_s) / 2.0 + u;
  };

  const double e0 = total_energy(sv);
  const StateVector s1 = propagate_rk4_j2(sv, 6000.0, 5.0);
  EXPECT_NEAR(total_energy(s1), e0, std::fabs(e0) * 1e-9);
}

TEST(NumericalPropagator, RejectsSubsurfaceState) {
  StateVector sv{{6000.0, 0.0, 0.0}, {0.0, 7.5, 0.0}};
  EXPECT_THROW(propagate_rk4_j2(sv, 60.0), std::domain_error);
}

}  // namespace
}  // namespace dgs::orbit
