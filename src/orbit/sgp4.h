// SGP4 orbit propagator (near-earth variant).
//
// From-scratch implementation of the SGP4 analytical theory in the
// formulation of Vallado et al., "Revisiting Spacetrack Report #3" (AIAA
// 2006-6753), using the WGS-72 gravity constants that NORAD element sets are
// fitted against.  Output state vectors are in the TEME (True Equator, Mean
// Equinox) inertial frame of the element set epoch, in kilometres and
// kilometres per second.
//
// Scope: the near-earth theory only.  All satellites in the paper's
// evaluation are LEO (300-600 km, period ~90 min); element sets with periods
// of 225 minutes or more require the deep-space extension (SDP4) and are
// rejected at construction with std::domain_error.
//
// Two call surfaces share one propagation kernel (sgp4_propagate):
//   * Sgp4 — one element set, one state per call;
//   * Sgp4Batch (sgp4_batch.h) — a whole constellation, propagated per
//     scheduling step.
// Both produce bit-identical states for the same element set and time.
#pragma once

#include "src/orbit/tle.h"
#include "src/util/time.h"
#include "src/util/vec3.h"

namespace dgs::orbit {

/// Position/velocity state in the TEME frame.
struct TemeState {
  util::Vec3 position_km;
  util::Vec3 velocity_km_s;
};

/// The derived initialization constants of one near-earth element set —
/// everything sgp4_propagate needs besides the time offset.  Produced by
/// sgp4_init; field names follow the reference theory.  Sgp4Batch keeps
/// one per satellite.
struct Sgp4Params {
  // Elements at epoch (radians, rad/min).
  double ecco = 0.0, inclo = 0.0, nodeo = 0.0, argpo = 0.0, mo = 0.0;
  double no_unkozai = 0.0;
  double bstar = 0.0;

  bool isimp = false;
  double aycof = 0.0, con41 = 0.0, cc1 = 0.0, cc4 = 0.0, cc5 = 0.0;
  double d2 = 0.0, d3 = 0.0, d4 = 0.0;
  double delmo = 0.0, eta = 0.0, argpdot = 0.0, omgcof = 0.0;
  double sinmao = 0.0, t2cof = 0.0, t3cof = 0.0, t4cof = 0.0, t5cof = 0.0;
  double x1mth2 = 0.0, x7thm1 = 0.0, mdot = 0.0, nodedot = 0.0;
  double xlcof = 0.0, xmcof = 0.0, nodecf = 0.0;
};

/// Recovers the Brouwer mean motion and derives the propagation constants
/// for one element set.  Throws std::domain_error for deep-space (period
/// >= 225 min) or physically invalid element sets.
Sgp4Params sgp4_init(const Tle& tle);

/// The propagation kernel: state at `tsince_minutes` after the element set
/// epoch (may be negative).  Throws std::domain_error if the mean elements
/// become non-physical (eccentricity out of range, negative semi-latus
/// rectum) or the satellite has decayed below the Earth's surface.
TemeState sgp4_propagate(const Sgp4Params& p, double tsince_minutes);

class Sgp4 {
 public:
  /// Initializes the propagator from a parsed element set.
  /// Throws std::domain_error for deep-space (period >= 225 min) or
  /// physically invalid element sets.
  explicit Sgp4(const Tle& tle)
      : epoch_(tle.epoch), satnum_(tle.satnum), p_(sgp4_init(tle)) {}

  /// Propagates to `tsince_minutes` after the element set epoch (may be
  /// negative).  Throws std::domain_error if the mean elements become
  /// non-physical (eccentricity out of range, negative semi-latus rectum)
  /// or the satellite has decayed below the Earth's surface.
  TemeState propagate(double tsince_minutes) const {
    return sgp4_propagate(p_, tsince_minutes);
  }

  /// Propagates to an absolute epoch.
  TemeState propagate_to(const util::Epoch& when) const {
    return propagate(when.minutes_since(epoch_));
  }

  const util::Epoch& epoch() const { return epoch_; }
  int satnum() const { return satnum_; }
  /// Un-Kozai'd (Brouwer) mean motion [rad/min] recovered during init.
  double mean_motion_rad_per_min() const { return p_.no_unkozai; }
  /// Orbital period from the recovered mean motion [minutes].
  double period_minutes() const;

 private:
  util::Epoch epoch_;
  int satnum_ = 0;
  Sgp4Params p_;
};

}  // namespace dgs::orbit
