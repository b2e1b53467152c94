#include "src/orbit/tle.h"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdio>

#include "src/util/check.h"
#include "src/util/constants.h"
#include "src/util/parse.h"

namespace dgs::orbit {
namespace {

using util::kTwoPi;

[[noreturn]] void fail(const std::string& what) {
  DGS_ENSURE(false, "TLE parse error: " << what);
}

/// Extracts [start, start+len) as a trimmed string (columns are 0-based here;
/// the TLE format spec numbers columns from 1).
std::string field(std::string_view line, std::size_t start, std::size_t len) {
  if (line.size() < start + len) fail("line too short");
  std::string s(line.substr(start, len));
  const auto b = s.find_first_not_of(' ');
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(' ');
  return s.substr(b, e - b + 1);
}

/// The trimmed field [start, start+len), read whole as a finite double;
/// a blank field reads 0.
double parse_double(std::string_view line, std::size_t start, std::size_t len,
                    const char* what) {
  const std::string s = field(line, start, len);
  double v = 0.0;
  if (!s.empty() && !util::parse_number(s, -DBL_MAX, DBL_MAX, &v)) {
    fail(std::string(what) + ": not a finite number \"" + s + "\"");
  }
  return v;
}

/// The trimmed field read whole as an int; a blank field reads 0.
int parse_int(std::string_view line, std::size_t start, std::size_t len,
              const char* what) {
  const std::string s = field(line, start, len);
  int v = 0;
  if (!s.empty() && !util::parse_whole(s, &v)) {
    fail(std::string(what) + ": not an integer \"" + s + "\"");
  }
  return v;
}

/// True when `s` is a non-empty run of decimal digits.
bool all_digits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
}

/// Parses the implied-decimal exponent notation used for nddot and B*,
/// e.g. " 28098-4" == 0.28098e-4 and "-11606-4" == -0.11606e-4: an
/// optional sign, the mantissa digits, then an optional signed exponent.
double parse_exp_field(std::string_view line, std::size_t start,
                       std::size_t len, const char* what) {
  const std::string s = field(line, start, len);
  if (s.empty()) return 0.0;
  const std::size_t lead = s[0] == '+' || s[0] == '-' ? 1 : 0;
  const std::size_t split = s.find_first_of("+-", lead);
  const std::string mantissa = s.substr(lead, split - lead);
  const std::string expo =
      split == std::string::npos ? "0" : s.substr(split + 1);
  double m = 0.0;
  int e = 0;
  if (!all_digits(mantissa) || !all_digits(expo) ||
      !util::parse_whole("0." + mantissa, &m) ||
      !util::parse_whole(expo, &e)) {
    fail(std::string(what) + ": bad exponent notation \"" + s + "\"");
  }
  if (split != std::string::npos && s[split] == '-') e = -e;
  return (s[0] == '-' ? -m : m) * std::pow(10.0, e);
}

}  // namespace

int tle_checksum(std::string_view line) {
  int sum = 0;
  const std::size_t n = std::min<std::size_t>(line.size(), 68);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = line[i];
    if (std::isdigit(static_cast<unsigned char>(c))) sum += c - '0';
    if (c == '-') sum += 1;
  }
  return sum % 10;
}

Tle parse_tle(std::string_view line1, std::string_view line2) {
  if (line1.size() < 69 || line2.size() < 69) fail("lines must be 69 columns");
  if (line1[0] != '1') fail("line 1 must start with '1'");
  if (line2[0] != '2') fail("line 2 must start with '2'");
  for (auto [line, name] : {std::pair{line1, "line 1"}, {line2, "line 2"}}) {
    const char expect = line[68];
    if (!std::isdigit(static_cast<unsigned char>(expect)) ||
        tle_checksum(line) != expect - '0') {
      fail(std::string("checksum mismatch on ") + name);
    }
  }

  Tle t;
  t.satnum = parse_int(line1, 2, 5, "satnum");
  if (t.satnum != parse_int(line2, 2, 5, "satnum(line2)")) {
    fail("catalog numbers disagree between lines");
  }
  t.classification = line1[7];
  t.intl_designator = field(line1, 9, 8);

  const int epoch_yy = parse_int(line1, 18, 2, "epoch year");
  const double epoch_doy = parse_double(line1, 20, 12, "epoch day");
  if (epoch_doy < 1.0 || epoch_doy >= 367.0) fail("epoch day: out of [1, 367)");
  t.epoch = util::Epoch::from_tle_epoch(epoch_yy, epoch_doy);

  t.ndot_over_2 = parse_double(line1, 33, 10, "ndot/2");
  t.nddot_over_6 = parse_exp_field(line1, 44, 8, "nddot/6");
  t.bstar = parse_exp_field(line1, 53, 8, "bstar");
  t.element_set_number = parse_int(line1, 64, 4, "element set number");

  t.inclination_deg = parse_double(line2, 8, 8, "inclination");
  t.raan_deg = parse_double(line2, 17, 8, "raan");
  // Seven digits with an implied leading decimal point, so always in
  // [0, 1).
  const std::string ecc = field(line2, 26, 7);
  if (!ecc.empty() &&
      (!all_digits(ecc) || !util::parse_whole("0." + ecc, &t.eccentricity))) {
    fail("eccentricity: expected implied-decimal digits, got \"" + ecc +
         "\"");
  }
  t.arg_perigee_deg = parse_double(line2, 34, 8, "arg perigee");
  t.mean_anomaly_deg = parse_double(line2, 43, 8, "mean anomaly");
  t.mean_motion_revs_per_day = parse_double(line2, 52, 11, "mean motion");
  t.rev_number = parse_int(line2, 63, 5, "rev number");

  if (t.inclination_deg < 0.0 || t.inclination_deg > 180.0) {
    fail("inclination: out of [0, 180]");
  }
  if (t.mean_motion_revs_per_day <= 0.0) fail("mean motion: must be > 0");
  return t;
}

Tle parse_tle_3le(std::string_view name_line, std::string_view line1,
                  std::string_view line2) {
  Tle t = parse_tle(line1, line2);
  std::string name(name_line);
  // Celestrak prefixes name lines with "0 " in some exports.
  if (name.rfind("0 ", 0) == 0) name = name.substr(2);
  const auto e = name.find_last_not_of(" \r\n");
  t.name = e == std::string::npos ? "" : name.substr(0, e + 1);
  return t;
}

double Tle::semi_major_axis_km() const {
  const double n_rad_per_sec =
      mean_motion_revs_per_day * kTwoPi / util::kSecondsPerDay;
  return std::cbrt(util::wgs72::kMu / (n_rad_per_sec * n_rad_per_sec));
}

double Tle::perigee_altitude_km() const {
  return semi_major_axis_km() * (1.0 - eccentricity) -
         util::wgs72::kEarthRadiusKm;
}

double Tle::apogee_altitude_km() const {
  return semi_major_axis_km() * (1.0 + eccentricity) -
         util::wgs72::kEarthRadiusKm;
}

namespace {

/// Formats a value into the implied-decimal exponent notation (8 cols),
/// e.g. 0.28098e-4 -> " 28098-4".
std::string format_exp_field(double v) {
  char buf[16];
  if (v == 0.0) return " 00000+0";
  const double a = std::fabs(v);
  int e = static_cast<int>(std::ceil(std::log10(a) + 1e-12));
  double m = a / std::pow(10.0, e);
  // Keep mantissa in [0.1, 1).
  if (m >= 1.0) {
    m /= 10.0;
    ++e;
  }
  if (m < 0.1) {
    m *= 10.0;
    --e;
  }
  const int digits = static_cast<int>(std::llround(m * 100000.0));
  std::snprintf(buf, sizeof(buf), "%c%05d%+d", v < 0 ? '-' : ' ',
                digits >= 100000 ? 99999 : digits, e);
  return buf;
}

void append_checksum(std::string& line) {
  line += static_cast<char>('0' + tle_checksum(line));
}

}  // namespace

std::string format_tle_line1(const Tle& tle) {
  const util::DateTime dt = tle.epoch.utc();
  const int yy = dt.year % 100;
  const double jd_jan1 =
      util::julian_date(util::DateTime{dt.year, 1, 1, 0, 0, 0.0});
  const double doy = tle.epoch.jd() - jd_jan1 + 1.0;

  char buf[80];
  // ndot/2 field: sign + ".8 decimals" with the leading zero dropped.
  char ndot[16];
  std::snprintf(ndot, sizeof(ndot), "%+.8f", tle.ndot_over_2);
  std::string ndot_s(ndot);
  // "+0.00002182" -> " .00002182" ; "-0.0000..." -> "-.0000..."
  ndot_s.erase(1, 1);
  if (ndot_s[0] == '+') ndot_s[0] = ' ';

  std::snprintf(buf, sizeof(buf), "1 %05d%c %-8s %02d%012.8f %s %s %s 0 %4d",
                tle.satnum, tle.classification, tle.intl_designator.c_str(),
                yy, doy, ndot_s.c_str(),
                format_exp_field(tle.nddot_over_6).c_str(),
                format_exp_field(tle.bstar).c_str(),
                tle.element_set_number % 10000);
  std::string line(buf);
  line.resize(68, ' ');
  append_checksum(line);
  return line;
}

std::string format_tle_line2(const Tle& tle) {
  char buf[80];
  const long long ecc7 = std::llround(tle.eccentricity * 1e7);
  std::snprintf(buf, sizeof(buf),
                "2 %05d %8.4f %8.4f %07lld %8.4f %8.4f %11.8f%5d",
                tle.satnum, tle.inclination_deg, tle.raan_deg, ecc7,
                tle.arg_perigee_deg, tle.mean_anomaly_deg,
                tle.mean_motion_revs_per_day, tle.rev_number % 100000);
  std::string line(buf);
  line.resize(68, ' ');
  append_checksum(line);
  return line;
}

}  // namespace dgs::orbit
