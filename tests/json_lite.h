// Minimal JSON helpers for tests: a full-document syntax validator plus
// field extraction for the flat one-line objects the event log emits,
// and wrappers hooking the run-artifact schema validators
// (src/core/run_artifact.h) into EXPECT-style assertions.  A number is
// read as its whole token through util::parse_whole (src/util/parse.h).
#pragma once

#include <cctype>
#include <cstring>
#include <string>
#include <string_view>

#include "src/core/run_artifact.h"
#include "src/util/parse.h"

namespace dgs::testing {

namespace json_detail {

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool done() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void skip_ws() {
    while (!done() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
};

inline bool parse_value(Cursor& c);

inline bool parse_string(Cursor& c) {
  if (c.done() || c.peek() != '"') return false;
  ++c.i;
  while (!c.done()) {
    const char ch = c.s[c.i++];
    if (ch == '\\') {
      if (c.done()) return false;
      ++c.i;
      continue;
    }
    if (ch == '"') return true;
  }
  return false;
}

/// Length of the number token that starts `s`: its sign, digits, point
/// and exponent characters, up to the first character of none of them.
inline std::size_t number_token_length(std::string_view s) {
  std::size_t n = 0;
  while (n < s.size() && s[n] != '\0' &&
         std::strchr("+-0123456789.eE", s[n]) != nullptr) {
    ++n;
  }
  return n;
}

inline bool parse_number(Cursor& c) {
  const std::size_t n = number_token_length(c.s.substr(c.i));
  double v = 0.0;
  if (n == 0 || !util::parse_whole(c.s.substr(c.i, n), &v)) return false;
  c.i += n;
  return true;
}

inline bool parse_literal(Cursor& c, std::string_view lit) {
  if (c.s.substr(c.i, lit.size()) != lit) return false;
  c.i += lit.size();
  return true;
}

inline bool parse_object(Cursor& c) {
  ++c.i;  // consumes '{'
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.i;
    return true;
  }
  while (true) {
    c.skip_ws();
    if (!parse_string(c)) return false;
    c.skip_ws();
    if (c.done() || c.peek() != ':') return false;
    ++c.i;
    if (!parse_value(c)) return false;
    c.skip_ws();
    if (c.done()) return false;
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (c.peek() == '}') {
      ++c.i;
      return true;
    }
    return false;
  }
}

inline bool parse_array(Cursor& c) {
  ++c.i;  // consumes '['
  c.skip_ws();
  if (!c.done() && c.peek() == ']') {
    ++c.i;
    return true;
  }
  while (true) {
    if (!parse_value(c)) return false;
    c.skip_ws();
    if (c.done()) return false;
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (c.peek() == ']') {
      ++c.i;
      return true;
    }
    return false;
  }
}

inline bool parse_value(Cursor& c) {
  c.skip_ws();
  if (c.done()) return false;
  switch (c.peek()) {
    case '{': return parse_object(c);
    case '[': return parse_array(c);
    case '"': return parse_string(c);
    case 't': return parse_literal(c, "true");
    case 'f': return parse_literal(c, "false");
    case 'n': return parse_literal(c, "null");
    default: return parse_number(c);
  }
}

}  // namespace json_detail

/// True when `text` is exactly one syntactically valid JSON value.
inline bool json_valid(std::string_view text) {
  json_detail::Cursor c{text};
  if (!json_detail::parse_value(c)) return false;
  c.skip_ws();
  return c.done();
}

/// `"key":` followed by `tail`: what the field readers search for.  Built
/// by appends (GCC 12 at -O3 flags `"\"" + std::string(key)` -Wrestrict).
inline std::string json_key_needle(std::string_view key,
                                   std::string_view tail = "") {
  std::string needle;
  needle.reserve(key.size() + tail.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  needle += tail;
  return needle;
}

/// Extracts `"key": <number>` from a flat one-line JSON object.
inline bool json_number_field(std::string_view line, std::string_view key,
                              double* out) {
  const std::string needle = json_key_needle(key);
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  std::string_view rest = line.substr(pos + needle.size());
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t n = json_detail::number_token_length(rest);
  return n > 0 && util::parse_whole(rest.substr(0, n), out);
}

/// Extracts `"key": "<text>"` (no escape handling; test data is ASCII).
inline bool json_string_field(std::string_view line, std::string_view key,
                              std::string* out) {
  const std::string needle = json_key_needle(key, " \"");
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  const std::size_t start = pos + needle.size();
  const std::size_t close = line.find('"', start);
  if (close == std::string_view::npos) return false;
  *out = std::string(line.substr(start, close - start));
  return true;
}

// --- Run-artifact schema hookup (the single contract every summary /
// timeseries / event artifact honours; see run_artifact.h) ------------------

/// Renders an ArtifactError for assertion messages.
inline std::string artifact_error_text(
    const std::optional<dgs::core::ArtifactError>& e) {
  return e ? e->where + ": " + e->message : std::string("ok");
}

/// True iff `text` is a schema-valid summary JSON at the pinned
/// kRunArtifactSchemaVersion; fills `why` (may be null) on failure.
inline bool summary_schema_valid(std::string_view text,
                                 std::string* why = nullptr) {
  const auto e = dgs::core::validate_summary_json(text);
  if (e && why != nullptr) *why = artifact_error_text(e);
  return !e;
}

/// Same for the timeseries CSV artifact.
inline bool timeseries_schema_valid(std::string_view text,
                                    std::string* why = nullptr) {
  const auto e = dgs::core::validate_timeseries_csv(text);
  if (e && why != nullptr) *why = artifact_error_text(e);
  return !e;
}

/// Same for the JSONL event log artifact.
inline bool events_schema_valid(std::string_view text,
                                std::string* why = nullptr) {
  const auto e = dgs::core::validate_events_jsonl(text);
  if (e && why != nullptr) *why = artifact_error_text(e);
  return !e;
}

}  // namespace dgs::testing
