#include "src/util/time.h"

#include <cmath>
#include <cstdio>

#include "src/util/angles.h"
#include "src/util/constants.h"

namespace dgs::util {

double julian_date(const DateTime& dt) {
  // Vallado, "Fundamentals of Astrodynamics", algorithm 14 (valid 1900-2099).
  const double jd =
      367.0 * dt.year -
      std::floor((7.0 * (dt.year + std::floor((dt.month + 9.0) / 12.0))) /
                 4.0) +
      std::floor(275.0 * dt.month / 9.0) + dt.day + 1721013.5;
  const double day_frac =
      (dt.second + dt.minute * 60.0 + dt.hour * 3600.0) / kSecondsPerDay;
  return jd + day_frac;
}

DateTime calendar_from_jd(double jd) {
  // Vallado, algorithm 22.
  const double t1900 = (jd - 2415019.5) / 365.25;
  int year = 1900 + static_cast<int>(std::floor(t1900));
  auto leap_years = [](int y) {
    return static_cast<int>(std::floor((y - 1900 - 1) * 0.25));
  };
  double days =
      (jd - 2415019.5) - ((year - 1900) * 365.0 + leap_years(year));
  if (days < 1.0) {
    year -= 1;
    days = (jd - 2415019.5) - ((year - 1900) * 365.0 + leap_years(year));
  }
  const bool leap = (year % 4 == 0);  // valid 1900-2099
  static constexpr int kMonthLen[12] = {31, 28, 31, 30, 31, 30,
                                        31, 31, 30, 31, 30, 31};
  const int day_of_year = static_cast<int>(std::floor(days));
  int month = 1;
  int accum = 0;
  for (int m = 0; m < 12; ++m) {
    int len = kMonthLen[m] + ((m == 1 && leap) ? 1 : 0);
    if (accum + len >= day_of_year) {
      month = m + 1;
      break;
    }
    accum += len;
  }
  const int day = day_of_year - accum;

  double frac = days - day_of_year;
  // Guard against negative fractional residue from floating error.
  if (frac < 0.0) frac = 0.0;
  double secs = frac * kSecondsPerDay;
  int hour = static_cast<int>(std::floor(secs / 3600.0));
  secs -= hour * 3600.0;
  int minute = static_cast<int>(std::floor(secs / 60.0));
  double second = secs - minute * 60.0;
  // Normalize boundary cases like 23:59:60.0000001.
  if (second >= 60.0 - 1e-7) {
    second = 0.0;
    if (++minute == 60) {
      minute = 0;
      ++hour;
    }
  }
  if (hour == 24) hour = 23, minute = 59, second = 59.999999;
  return DateTime{year, month, day, hour, minute, second};
}

double gmst(double jd_ut1) {
  // IAU-82 GMST model (Vallado eq. 3-47), consistent with the TEME frame.
  const double t = (jd_ut1 - 2451545.0) / 36525.0;
  double g = 67310.54841 +
             (876600.0 * 3600.0 + 8640184.812866) * t +
             0.093104 * t * t - 6.2e-6 * t * t * t;  // seconds
  g = std::fmod(g, kSecondsPerDay);
  double rad = g * kTwoPi / kSecondsPerDay;
  return wrap_two_pi(rad);
}

Epoch::Epoch(const DateTime& dt) {
  const double jd = julian_date(dt);
  jd_whole_ = std::floor(jd);
  jd_frac_ = jd - jd_whole_;
}

Epoch Epoch::from_jd(double jd) {
  Epoch e(std::floor(jd), jd - std::floor(jd));
  return e;
}

Epoch Epoch::from_tle_epoch(int two_digit_year, double day_of_year) {
  // Spacetrack convention: years 57-99 => 1957-1999, 00-56 => 2000-2056.
  const int year = two_digit_year < 57 ? 2000 + two_digit_year
                                       : 1900 + two_digit_year;
  // Day-of-year 1.0 == Jan 1, 00:00 UTC.
  const double jd_jan1 = julian_date(DateTime{year, 1, 1, 0, 0, 0.0});
  return from_jd(jd_jan1 + (day_of_year - 1.0));
}

void Epoch::normalize() {
  const double shift = std::floor(jd_frac_);
  jd_whole_ += shift;
  jd_frac_ -= shift;
}

Epoch Epoch::plus_seconds(double s) const {
  Epoch e = *this;
  e.jd_frac_ += s / kSecondsPerDay;
  e.normalize();
  return e;
}

std::string Epoch::to_string() const {
  const DateTime dt = utc();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ", dt.year,
                dt.month, dt.day, dt.hour, dt.minute,
                static_cast<int>(dt.second));
  return buf;
}

}  // namespace dgs::util
