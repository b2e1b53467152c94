// Minimal 3-vector used for positions/velocities throughout DGS.
#pragma once

#include <cmath>

namespace dgs::util {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3 operator+(const Vec3& o) const {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-(const Vec3& o) const {
    return {x - o.x, y - o.y, z - o.z};
  }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  constexpr double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double norm() const { return std::sqrt(dot(*this)); }
  Vec3 normalized() const { return *this / norm(); }

  friend constexpr bool operator==(const Vec3&, const Vec3&) = default;
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

/// Checkpoint serialization (core/checkpoint.h).
template <class Ar>
void io(Ar& ar, Vec3& v) {
  ar.f64(v.x);
  ar.f64(v.y);
  ar.f64(v.z);
}

}  // namespace dgs::util
