// Whole-text number parsing: the one way src/ and examples/ read numeric
// text (dgslint R11 flags the C library's atoi/strtod/std::stod family,
// which stop at the first bad character, skip leading spaces, or throw
// their own exceptions).
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace dgs::util {

/// Parses all of `text` as a T into *out: decimal digits with an optional
/// leading '-' for an integer type, a decimal or exponent form for a
/// double (which also takes "inf" and "nan"; check finiteness where it
/// matters).  Returns false, leaving *out unchanged, for anything else:
/// "", "12abc", a leading space or '+', a value T cannot hold.
template <class T>
bool parse_whole(std::string_view text, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

/// parse_whole, and the value lies in [min, max] (so a double is finite
/// when the bounds are).
template <class T>
bool parse_number(std::string_view text, T min, T max, T* out) {
  T v{};
  if (!parse_whole(text, &v) || !(v >= min && v <= max)) return false;
  *out = v;
  return true;
}

}  // namespace dgs::util
