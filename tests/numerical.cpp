#include "tests/numerical.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/check.h"
#include "src/util/constants.h"

namespace dgs::orbit {

using util::Vec3;
using util::wgs72::kEarthRadiusKm;
using util::wgs72::kJ2;
using util::wgs72::kMu;

Vec3 gravity_j2(const Vec3& r) {
  const double rn = r.norm();
  if (rn < kEarthRadiusKm) {
    // dgslint: allow(R4) -- domain_error is the documented math contract
    throw std::domain_error("gravity_j2: position inside the Earth");
  }
  const double rn2 = rn * rn;
  const double rn3 = rn2 * rn;

  // Point mass.
  Vec3 a = r * (-kMu / rn3);

  // J2 oblateness (Vallado eq. 8-30).
  const double z2_r2 = (r.z * r.z) / rn2;
  const double k = -1.5 * kJ2 * kMu * kEarthRadiusKm * kEarthRadiusKm /
                   (rn2 * rn3);
  a.x += k * r.x * (1.0 - 5.0 * z2_r2);
  a.y += k * r.y * (1.0 - 5.0 * z2_r2);
  a.z += k * r.z * (3.0 - 5.0 * z2_r2);
  return a;
}

namespace {

struct Deriv {
  Vec3 v;  ///< dr/dt
  Vec3 a;  ///< dv/dt
};

Deriv eval(const StateVector& s) {
  return {s.velocity_km_s, gravity_j2(s.position_km)};
}

StateVector step_rk4(const StateVector& s, double h) {
  const Deriv k1 = eval(s);
  const Deriv k2 = eval({s.position_km + k1.v * (h / 2.0),
                         s.velocity_km_s + k1.a * (h / 2.0)});
  const Deriv k3 = eval({s.position_km + k2.v * (h / 2.0),
                         s.velocity_km_s + k2.a * (h / 2.0)});
  const Deriv k4 = eval({s.position_km + k3.v * h, s.velocity_km_s + k3.a * h});
  StateVector out;
  out.position_km =
      s.position_km + (k1.v + (k2.v + k3.v) * 2.0 + k4.v) * (h / 6.0);
  out.velocity_km_s =
      s.velocity_km_s + (k1.a + (k2.a + k3.a) * 2.0 + k4.a) * (h / 6.0);
  return out;
}

}  // namespace

StateVector propagate_rk4_j2(const StateVector& initial, double dt_seconds,
                             double max_step_seconds) {
  DGS_ENSURE_GT(max_step_seconds, 0.0);
  StateVector s = initial;
  double remaining = dt_seconds;
  const double dir = remaining >= 0.0 ? 1.0 : -1.0;
  remaining = std::fabs(remaining);
  while (remaining > 0.0) {
    const double h = dir * std::min(remaining, max_step_seconds);
    s = step_rk4(s, h);
    remaining -= std::fabs(h);
  }
  return s;
}

}  // namespace dgs::orbit
