// Test-only reference orbit propagator (RK4 with a J2-perturbed point-mass
// field).
//
// This integrator is deliberately independent of the SGP4 analytical theory:
// the test suite cross-validates SGP4 against it over multi-orbit horizons,
// where both models agree to kilometre level for LEO (the residual is J3/J4,
// drag, and resonance terms that are negligible over hours).
#pragma once

#include "src/orbit/kepler.h"
#include "src/util/vec3.h"

namespace dgs::orbit {

/// Gravitational acceleration [km/s^2] at inertial position `r_km`,
/// including the J2 oblateness term (WGS-72 constants).
util::Vec3 gravity_j2(const util::Vec3& r_km);

/// Integrates the state forward by `dt_seconds` using fixed-step RK4 with
/// steps of at most `max_step_seconds`.  Throws std::domain_error if the
/// trajectory intersects the Earth.
StateVector propagate_rk4_j2(const StateVector& initial, double dt_seconds,
                             double max_step_seconds = 10.0);

}  // namespace dgs::orbit
