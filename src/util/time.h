// Astronomical time utilities: calendar <-> Julian date conversion, Greenwich
// Mean Sidereal Time, and an Epoch type used as the simulation clock.
//
// DGS treats UTC == UT1 (the sub-second difference is irrelevant at the
// kilometre-level accuracy of TLE propagation) and ignores leap seconds over
// the day-scale horizons the simulator runs.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <string>

#include "src/util/constants.h"

namespace dgs::util {

/// A broken-down civil UTC date/time.
struct DateTime {
  int year = 2000;      ///< Full year, e.g. 2020.
  int month = 1;        ///< 1..12.
  int day = 1;          ///< 1..31.
  int hour = 0;         ///< 0..23.
  int minute = 0;       ///< 0..59.
  double second = 0.0;  ///< [0, 60).

  friend bool operator==(const DateTime&, const DateTime&) = default;
};

/// Julian date of a civil UTC date/time (valid for years 1900..2099).
double julian_date(const DateTime& dt);

/// Inverse of julian_date().
DateTime calendar_from_jd(double jd);

/// Greenwich Mean Sidereal Time [rad, in 0..2pi) at the given Julian date
/// (IAU-82 model, the one used with TLE/TEME frames).
double gmst(double jd_ut1);

/// A point on the simulation timeline.  Internally a Julian date split into
/// integer day + fraction to preserve sub-millisecond resolution over
/// century-scale magnitudes.
class Epoch {
 public:
  Epoch() = default;
  explicit Epoch(const DateTime& dt);
  /// From a raw Julian date.
  static Epoch from_jd(double jd);
  /// From TLE epoch fields: two-digit year and fractional day-of-year.
  static Epoch from_tle_epoch(int two_digit_year, double day_of_year);

  /// Julian date (whole + fraction); fine for GMST / propagation spans.
  double jd() const { return jd_whole_ + jd_frac_; }

  /// Seconds elapsed from `earlier` to this epoch (negative if this < earlier).
  /// Inline: report() rebuilds every stored delay with it.
  double seconds_since(const Epoch& earlier) const {
    const double dwhole = jd_whole_ - earlier.jd_whole_;
    const double dfrac = jd_frac_ - earlier.jd_frac_;
    return (dwhole + dfrac) * kSecondsPerDay;
  }
  /// Minutes elapsed from `earlier` to this epoch.
  double minutes_since(const Epoch& earlier) const {
    return seconds_since(earlier) / 60.0;
  }

  /// A new epoch this many seconds later (may be negative).
  Epoch plus_seconds(double s) const;
  Epoch plus_minutes(double m) const { return plus_seconds(m * 60.0); }
  Epoch plus_days(double d) const { return plus_seconds(d * 86400.0); }

  /// Civil UTC representation.
  DateTime utc() const { return calendar_from_jd(jd()); }
  /// ISO-8601-like "YYYY-MM-DDThh:mm:ssZ" string (seconds truncated).
  std::string to_string() const;

  /// The exact internal split as raw bits.  Epochs with equal bits give
  /// bit-identical propagation; operator== compares jd() instead, which
  /// also equates splits that only round to the same sum.
  struct Bits {
    std::uint64_t whole = 0;
    std::uint64_t frac = 0;
    friend bool operator==(const Bits&, const Bits&) = default;
  };
  Bits bits() const {
    return {std::bit_cast<std::uint64_t>(jd_whole_),
            std::bit_cast<std::uint64_t>(jd_frac_)};
  }

  friend bool operator==(const Epoch& a, const Epoch& b) {
    return a.jd() == b.jd();
  }
  friend std::partial_ordering operator<=>(const Epoch& a, const Epoch& b) {
    return a.jd() <=> b.jd();
  }

  /// Checkpoint serialization (core/checkpoint.h): the exact internal
  /// split, bit-for-bit, with no normalization.
  template <class Ar>
  friend void io(Ar& ar, Epoch& e) {
    ar.f64(e.jd_whole_);
    ar.f64(e.jd_frac_);
  }

 private:
  Epoch(double whole, double frac) : jd_whole_(whole), jd_frac_(frac) {}
  void normalize();

  double jd_whole_ = 2451545.0;  ///< Integer-ish part of the Julian date.
  double jd_frac_ = 0.0;         ///< Fractional remainder in [0, 1).
};

}  // namespace dgs::util
