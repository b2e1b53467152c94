// TLE parsing, validation, checksums, and round-trip formatting.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "src/orbit/tle.h"
#include "src/util/angles.h"

namespace dgs::orbit {
namespace {

// Canonical element sets from the SGP4 verification suite / Celestrak.
constexpr const char* kIssL1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssL2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
constexpr const char* kVanguardL1 =
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
constexpr const char* kVanguardL2 =
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";

TEST(TleParse, IssFields) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  EXPECT_EQ(t.satnum, 25544);
  EXPECT_EQ(t.classification, 'U');
  EXPECT_EQ(t.intl_designator, "98067A");
  EXPECT_NEAR(t.ndot_over_2, -0.00002182, 1e-10);
  EXPECT_NEAR(t.bstar, -0.11606e-4, 1e-10);
  EXPECT_EQ(t.element_set_number, 292);
  EXPECT_NEAR(t.inclination_deg, 51.6416, 1e-9);
  EXPECT_NEAR(t.raan_deg, 247.4627, 1e-9);
  EXPECT_NEAR(t.eccentricity, 0.0006703, 1e-10);
  EXPECT_NEAR(t.arg_perigee_deg, 130.5360, 1e-9);
  EXPECT_NEAR(t.mean_anomaly_deg, 325.0288, 1e-9);
  EXPECT_NEAR(t.mean_motion_revs_per_day, 15.72125391, 1e-8);
  EXPECT_EQ(t.rev_number, 56353);
}

TEST(TleParse, EpochDecoding) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const util::DateTime dt = t.epoch.utc();
  // Day 264.51782528 of 2008 = Sep 20, ~12:25:40 UTC.
  EXPECT_EQ(dt.year, 2008);
  EXPECT_EQ(dt.month, 9);
  EXPECT_EQ(dt.day, 20);
  EXPECT_EQ(dt.hour, 12);
}

TEST(TleParse, ExponentNotationFields) {
  const Tle t = parse_tle(kVanguardL1, kVanguardL2);
  EXPECT_NEAR(t.bstar, 0.28098e-4, 1e-12);
  EXPECT_DOUBLE_EQ(t.nddot_over_6, 0.0);
}

TEST(TleParse, DerivedOrbitQuantities) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  EXPECT_NEAR(t.period_minutes(), 1440.0 / 15.72125391, 1e-6);
  // ISS altitude ~340-360 km in 2008.
  EXPECT_GT(t.perigee_altitude_km(), 300.0);
  EXPECT_LT(t.apogee_altitude_km(), 400.0);
  EXPECT_LE(t.perigee_altitude_km(), t.apogee_altitude_km());
}

TEST(TleParse, ThreeLineVariant) {
  const Tle t = parse_tle_3le("ISS (ZARYA)", kIssL1, kIssL2);
  EXPECT_EQ(t.name, "ISS (ZARYA)");
  const Tle t2 = parse_tle_3le("0 ISS (ZARYA)\r\n", kIssL1, kIssL2);
  EXPECT_EQ(t2.name, "ISS (ZARYA)");
}

TEST(TleChecksum, MatchesKnownLines) {
  EXPECT_EQ(tle_checksum(kIssL1), 7);
  EXPECT_EQ(tle_checksum(kIssL2), 7);
  EXPECT_EQ(tle_checksum(kVanguardL1), 3);
  EXPECT_EQ(tle_checksum(kVanguardL2), 7);
}

TEST(TleParse, RejectsBadChecksum) {
  std::string bad(kIssL1);
  bad[68] = '0';  // correct value is 7
  EXPECT_THROW(parse_tle(bad, kIssL2), std::invalid_argument);
}

TEST(TleParse, RejectsWrongLineNumbers) {
  EXPECT_THROW(parse_tle(kIssL2, kIssL1), std::invalid_argument);
}

TEST(TleParse, RejectsShortLines) {
  EXPECT_THROW(parse_tle("1 25544U", kIssL2), std::invalid_argument);
}

TEST(TleParse, RejectsMismatchedCatalogNumbers) {
  // Vanguard line 2 has satnum 00005, ISS line 1 has 25544; fix checksums
  // is unnecessary because the satnum check runs after checksum -- so build
  // a consistent-checksum variant instead by swapping whole lines.
  EXPECT_THROW(parse_tle(kIssL1, kVanguardL2), std::invalid_argument);
}

/// `line` with the 0-based columns from `start` overwritten by `text`, its
/// checksum recomputed so only the field itself is wrong.
std::string with_field(std::string line, std::size_t start,
                       const std::string& text) {
  line.replace(start, text.size(), text);
  line[68] = static_cast<char>('0' + tle_checksum(line));
  return line;
}

/// The parse error `parse_tle` raises, or "" when it accepts the lines.
std::string parse_error(const std::string& l1, const std::string& l2) {
  try {
    parse_tle(l1, l2);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Every numeric field is read whole and finite; each mutation below used
// to parse (or escaped as a bare std::stoi / std::out_of_range).
TEST(TleParse, RejectsNanInclination) {
  const std::string e = parse_error(kIssL1, with_field(kIssL2, 8, "     nan"));
  EXPECT_NE(e.find("TLE parse error: inclination: "), std::string::npos) << e;
}

TEST(TleParse, RejectsNanMeanMotion) {
  const std::string e =
      parse_error(kIssL1, with_field(kIssL2, 52, "        nan"));
  EXPECT_NE(e.find("TLE parse error: mean motion: "), std::string::npos) << e;
}

TEST(TleParse, RejectsInfMeanMotion) {
  const std::string e =
      parse_error(kIssL1, with_field(kIssL2, 52, "        inf"));
  EXPECT_NE(e.find("TLE parse error: mean motion: "), std::string::npos) << e;
}

TEST(TleParse, RejectsOverflowingMeanMotion) {
  const std::string e =
      parse_error(kIssL1, with_field(kIssL2, 52, "      1e999"));
  EXPECT_NE(e.find("TLE parse error: mean motion: "), std::string::npos) << e;
}

TEST(TleParse, RejectsEccentricityWithTrailingJunk) {
  const std::string e = parse_error(kIssL1, with_field(kIssL2, 26, "00012ab"));
  EXPECT_NE(e.find("TLE parse error: eccentricity: "), std::string::npos)
      << e;
}

TEST(TleParse, RejectsBstarWithNonDigitExponent) {
  const std::string e = parse_error(with_field(kIssL1, 53, " 29621-x"), kIssL2);
  EXPECT_NE(e.find("TLE parse error: bstar: "), std::string::npos) << e;
}

TEST(TleParse, RejectsBstarWithMissingExponent) {
  const std::string e = parse_error(with_field(kIssL1, 53, " 29621- "), kIssL2);
  EXPECT_NE(e.find("TLE parse error: bstar: "), std::string::npos) << e;
}

TEST(TleParse, FieldMutationHelperKeepsValidLinesValid) {
  // The helper only moves the checksum: rewriting a field with its own
  // text parses to the same element set.
  const Tle t = parse_tle(with_field(kIssL1, 53, "-11606-4"),
                          with_field(kIssL2, 26, "0006703"));
  EXPECT_NEAR(t.bstar, -0.11606e-4, 1e-12);
  EXPECT_NEAR(t.eccentricity, 0.0006703, 1e-12);
}

TEST(TleFormat, RoundTripsIss) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const std::string l1 = format_tle_line1(t);
  const std::string l2 = format_tle_line2(t);
  ASSERT_EQ(l1.size(), 69u);
  ASSERT_EQ(l2.size(), 69u);
  const Tle back = parse_tle(l1, l2);
  EXPECT_EQ(back.satnum, t.satnum);
  EXPECT_NEAR(back.epoch.jd(), t.epoch.jd(), 1e-7);
  EXPECT_NEAR(back.bstar, t.bstar, 1e-9);
  EXPECT_NEAR(back.inclination_deg, t.inclination_deg, 1e-4);
  EXPECT_NEAR(back.raan_deg, t.raan_deg, 1e-4);
  EXPECT_NEAR(back.eccentricity, t.eccentricity, 1e-7);
  EXPECT_NEAR(back.arg_perigee_deg, t.arg_perigee_deg, 1e-4);
  EXPECT_NEAR(back.mean_anomaly_deg, t.mean_anomaly_deg, 1e-4);
  EXPECT_NEAR(back.mean_motion_revs_per_day, t.mean_motion_revs_per_day, 1e-8);
}

TEST(TleFormat, RoundTripsHighEccentricityAndNegativeBstar) {
  Tle t = parse_tle(kVanguardL1, kVanguardL2);
  t.bstar = -3.2e-5;
  const Tle back = parse_tle(format_tle_line1(t), format_tle_line2(t));
  EXPECT_NEAR(back.bstar, t.bstar, 1e-9);
  EXPECT_NEAR(back.eccentricity, 0.1859667, 1e-7);
}

TEST(TleFormat, ChecksumsAreValid) {
  const Tle t = parse_tle(kIssL1, kIssL2);
  const std::string l1 = format_tle_line1(t);
  const std::string l2 = format_tle_line2(t);
  EXPECT_EQ(tle_checksum(l1), l1[68] - '0');
  EXPECT_EQ(tle_checksum(l2), l2[68] - '0');
}

}  // namespace
}  // namespace dgs::orbit
