// dgs.checkpoint.v5: the snapshot/restore container for core::Session
// (DESIGN.md §16).  It stores each run fact once, writes the `geometry`
// and `matcher` sections empty (the state they held is gone) and keeps
// every delay as a whole-step age in LEB128 columns.  Its `metrics`
// section holds the session's own counts, never a registry snapshot, and
// the delivery satellite and urgent columns are written only when a
// split reads them.  A file with another magic line (a v1 to v4
// checkpoint included) is rejected.
//
// Layout: a magic line naming the container format, a u64 little-endian
// header length, a single-line restricted-JSON header (field table:
// checkpoint_header_specs in run_artifact.h), then the payload — the
// session's mutable state split into named sized sections
// (checkpoint_section_names), each framed as
//
//   u32 name_len | name bytes | u64 body_len | body bytes
//
// The header carries a CRC32 of the whole payload, so truncation and
// bit-flips are caught before any section is parsed.  All integers are
// little-endian; doubles are the IEEE-754 bit pattern via u64.  Writing
// raw double bits (not decimal text) is what makes restore byte-identical
// to an uninterrupted run: the restored state is the exact state that was
// saved, to the last mantissa bit.
//
// Section bodies are written once: every serialized type has one
// `template <class Ar> io(Ar&, T&)` (a member `io(Ar&)` on stateful
// classes), instantiated for both BinaryWriter and BinaryReader, so the
// writer and the reader cannot drift apart.  The two archives share one
// field vocabulary — u8/i32/i64/u64/f64/str/b (bool as u8), count() for
// length prefixes, expect() for values the reader must find equal to its
// own, check_index()/check_size() for indices and sizes a resumed run
// indexes vectors with, column() for a vector of plain numbers, leb128()
// for a vector of mostly small u32s, and seq()/obj() for nesting.  The
// reader bounds every count by the bytes left before it allocates and checks
// every expect(), index and size, so malformed input throws
// std::invalid_argument rather than exhausting memory or indexing out of
// bounds.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/run_artifact.h"
#include "src/util/check.h"

namespace dgs::core {

inline constexpr std::string_view kCheckpointMagic = "dgs.checkpoint.v5\n";

namespace checkpoint_detail {

/// Serializes any type with an io(): a member `x.io(ar)`, else a free
/// `io(ar, x)` found next to the type by argument-dependent lookup.
template <class Ar, class T>
void io_any(Ar& ar, T& x) {
  if constexpr (requires { x.io(ar); }) {
    x.io(ar);
  } else {
    io(ar, x);
  }
}

/// The default element serializer of seq(): the element's own io.
struct Obj {
  template <class Ar, class T>
  void operator()(Ar& ar, T& x) const {
    io_any(ar, x);
  }
};

/// The unsigned integer as wide as `T`, which carries T's bit pattern.
template <class T>
using Bits = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>;

}  // namespace checkpoint_detail

/// The element types column() moves in bulk: each is written exactly as
/// its scalar field (u8/i32/u64/f64) writes it.
template <class T>
concept ColumnScalar =
    std::same_as<T, std::uint8_t> || std::same_as<T, std::int32_t> ||
    std::same_as<T, std::uint64_t> || std::same_as<T, double>;

/// Little-endian binary section writer.  Each field is written on its own
/// (never a memcpy of a whole struct), so the format does not depend on
/// host padding.  On a little-endian host a scalar's bytes are already the
/// wire bytes, so each is appended whole and a column() in one append; a
/// big-endian host shifts the bytes out one by one.  Either way the bytes
/// are the same.  Doubles travel as their IEEE-754 bit pattern, so no
/// precision is lost.  The writer only reads the fields handed to it.
class BinaryWriter {
 public:
  static constexpr bool kReading = false;

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    data_.append(s);
  }

  /// Length prefix (u64) of `n` elements of at least `min_bytes` each;
  /// returns `n`.
  std::size_t count(std::size_t n, std::size_t /*min_bytes*/) {
    u64(n);
    return n;
  }
  /// A value the reader must find equal to its own: bool as u8, any other
  /// integer as u64.
  template <class T>
  void expect(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      b(v);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
  /// Checked on read only; the writer trusts its own state.
  void check_index(std::int64_t /*i*/, std::int64_t /*n*/) const {}
  void check_size(std::size_t /*size*/, std::size_t /*n*/) const {}

  template <class T>
  void obj(T& x) {
    checkpoint_detail::io_any(*this, x);
  }
  /// count() then every element through `f(ar, element)`.
  template <class C, class F = checkpoint_detail::Obj>
  void seq(C& c, F f = {}) {
    count(c.size(), 0);
    for (auto& x : c) f(*this, x);
  }
  /// The bytes seq() writes for `c` with each element as its scalar
  /// field: count() then the elements, in one append.
  template <ColumnScalar T>
  void column(std::vector<T>& c) {
    count(c.size(), sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      data_.append(reinterpret_cast<const char*>(c.data()),
                   c.size() * sizeof(T));
    } else {
      for (const T v : c) put(v);
    }
  }
  /// count() then each value as unsigned LEB128: seven bits a byte, low
  /// bits first, the high bit set on every byte but the last.  A value
  /// below 128 takes one byte, a u32 at most five.
  void leb128(std::vector<std::uint32_t>& c) {
    count(c.size(), 1);
    const std::size_t at = data_.size();
    data_.resize(at + 5 * c.size());
    char* p = data_.data() + at;
    for (std::uint32_t v : c) {
      for (; v >= 0x80; v >>= 7) *p++ = static_cast<char>(v | 0x80);
      *p++ = static_cast<char>(v);
    }
    data_.resize(static_cast<std::size_t>(p - data_.data()));
  }

  std::size_t size() const { return data_.size(); }
  const std::string& data() const { return data_; }
  std::string take() { return std::move(data_); }

 private:
  /// Appends the sizeof(U) little-endian bytes of `v`.
  template <class U>
  void put(U v) {
    if constexpr (std::endian::native == std::endian::little) {
      char bytes[sizeof(U)];
      std::memcpy(bytes, &v, sizeof(U));
      data_.append(bytes, sizeof(U));
    } else {
      const auto bits = std::bit_cast<checkpoint_detail::Bits<U>>(v);
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        data_.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
      }
    }
  }

  std::string data_;
};

/// Bounds-checked reader over one section's bytes, with the writer's
/// vocabulary: each call fills the field it is given.  Out-of-bounds
/// reads, oversized counts and failed expect()s throw (DGS_ENSURE) rather
/// than abort: a malformed section inside a checkpoint whose CRC passed is
/// still caller-recoverable corruption.
class BinaryReader {
 public:
  static constexpr bool kReading = true;

  explicit BinaryReader(std::string_view data) : data_(data) {}

  void u8(std::uint8_t& v) { v = little_endian<std::uint8_t>(); }
  void u64(std::uint64_t& v) { v = little_endian<std::uint64_t>(); }
  void i32(std::int32_t& v) { v = little_endian<std::int32_t>(); }
  void i64(std::int64_t& v) { v = little_endian<std::int64_t>(); }
  void f64(double& v) { v = little_endian<double>(); }
  /// Only the bytes b() writes, 0 and 1, so that a flag re-encodes to the
  /// byte it was read from.
  void b(bool& v) {
    std::uint8_t raw = 0;
    u8(raw);
    DGS_ENSURE(raw <= 1, "checkpoint flag byte " << int{raw});
    v = raw != 0;
  }
  void str(std::string& s) {
    const std::uint32_t n = little_endian<std::uint32_t>();
    need(n);
    s.assign(data_.substr(i_, n));
    i_ += n;
  }

  /// Reads a length prefix and rejects it unless that many elements of
  /// `min_bytes` each fit in the bytes left — before anything is sized
  /// from it.
  std::size_t count(std::size_t /*n*/, std::size_t min_bytes) {
    std::uint64_t n = 0;
    u64(n);
    DGS_ENSURE(n <= remaining() / std::max<std::size_t>(min_bytes, 1),
               "checkpoint count " << n << " of " << min_bytes
                                   << "-byte elements exceeds the "
                                   << remaining() << " bytes left");
    return static_cast<std::size_t>(n);
  }
  template <class T>
  void expect(T want) {
    if constexpr (std::is_same_v<T, bool>) {
      bool got = false;
      b(got);
      DGS_ENSURE_EQ(got, want);
    } else {
      std::uint64_t got = 0;
      u64(got);
      DGS_ENSURE_EQ(got, static_cast<std::uint64_t>(want));
    }
  }
  /// Rejects a stored index outside [0, n), or a sequence whose length
  /// is not `n`: a CRC-valid file can still carry one.
  void check_index(std::int64_t i, std::int64_t n) const {
    DGS_ENSURE(i >= 0 && i < n, "checkpoint index " << i << " of " << n);
  }
  void check_size(std::size_t size, std::size_t n) const {
    DGS_ENSURE_EQ(size, n);
  }

  template <class T>
  void obj(T& x) {
    checkpoint_detail::io_any(*this, x);
  }
  template <class C, class F = checkpoint_detail::Obj>
  void seq(C& c, F f = {}) {
    static const std::size_t min_bytes =
        min_wire_bytes<typename C::value_type>(f);
    c.clear();
    c.resize(count(0, min_bytes));
    for (auto& x : c) f(*this, x);
  }
  /// count() bounds the length by the bytes left before `c` is sized.
  template <ColumnScalar T>
  void column(std::vector<T>& c) {
    c.resize(count(0, sizeof(T)));
    if constexpr (std::endian::native == std::endian::little) {
      if (c.empty()) return;  // data() may be null.
      std::memcpy(c.data(), data_.data() + i_, c.size() * sizeof(T));
      i_ += c.size() * sizeof(T);
    } else {
      for (T& v : c) v = little_endian<T>();
    }
  }
  /// count() bounds the length (a value takes at least one byte) before
  /// `c` is sized.  Each value must be the shortest LEB128 form of a u32:
  /// a sixth byte, bits above 2^32 - 1 and a trailing zero byte are
  /// rejected, so every accepted column re-encodes to the same bytes.
  void leb128(std::vector<std::uint32_t>& c) {
    c.resize(count(0, 1));
    for (std::uint32_t& v : c) {
      v = 0;
      for (int shift = 0;; shift += 7) {
        need(1);
        const auto byte = static_cast<std::uint8_t>(data_[i_++]);
        DGS_ENSURE(shift < 28 || byte <= 0x0f,
                   "checkpoint LEB128 value exceeds 32 bits");
        v |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
        if (byte < 0x80) {
          DGS_ENSURE(byte != 0 || shift == 0,
                     "checkpoint LEB128 value has an overlong encoding");
          break;
        }
      }
    }
  }

  bool done() const { return i_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - i_; }

 private:
  /// Encoded size of a default element, whose nested sequences are all
  /// empty: the fewest bytes any element of the sequence can take.
  template <class T, class F>
  static std::size_t min_wire_bytes(const F& f) {
    BinaryWriter probe;
    T x{};
    f(probe, x);
    return probe.size();
  }

  /// The next sizeof(U) bytes as a little-endian U.
  template <class U>
  U little_endian() {
    need(sizeof(U));
    U v{};
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + i_, sizeof(U));
    } else {
      checkpoint_detail::Bits<U> bits = 0;
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        bits |= static_cast<checkpoint_detail::Bits<U>>(
                    static_cast<std::uint8_t>(data_[i_ + i]))
                << (8 * i);
      }
      v = std::bit_cast<U>(bits);
    }
    i_ += sizeof(U);
    return v;
  }

  void need(std::size_t n) const {
    DGS_ENSURE(data_.size() - i_ >= n,
               "checkpoint section truncated: need " << n << " bytes, have "
                                                     << data_.size() - i_);
  }

  std::string_view data_;
  std::size_t i_ = 0;
};

/// Parsed header identity of a checkpoint (checkpoint_header_specs order;
/// `sections` is implied by checkpoint_section_names and not stored).
struct CheckpointHeader {
  int num_satellites = 0;
  int num_stations = 0;
  std::int64_t steps = 0;
  std::int64_t step_index = 0;
  double step_seconds = 0.0;
  double duration_hours = 0.0;
  bool finalized = false;
  std::uint32_t options_crc32 = 0;
  std::uint64_t payload_bytes = 0;   ///< Filled by write_checkpoint.
  std::uint32_t payload_crc32 = 0;   ///< Filled by write_checkpoint.
};

/// Renders the header as single-line restricted JSON: schema_version and
/// the "checkpoint" tag, then the checkpoint_header_specs rows in order.
std::string render_checkpoint_header(const CheckpointHeader& header);

/// Writes a complete checkpoint: magic, header (payload size/CRC computed
/// here), and the sections in the given order.  The caller must pass
/// exactly checkpoint_section_names() names in order — enforced.
void write_checkpoint(
    std::ostream& out, CheckpointHeader header,
    std::span<const std::pair<std::string, std::string>> sections);

/// A validated view into a checkpoint buffer.  Section views alias the
/// buffer passed to read_checkpoint, which must outlive the view.
struct CheckpointView {
  CheckpointHeader header;
  std::vector<std::pair<std::string, std::string_view>> sections;

  std::string_view section(std::string_view name) const;
};

/// Parses and fully validates a checkpoint buffer: magic, header schema
/// (validate_checkpoint_header_json, which also fills the header), payload
/// size and CRC, and the exact section sequence.  Returns the first
/// violation, or nullopt with `out` filled.
std::optional<ArtifactError> read_checkpoint(std::string_view data,
                                             CheckpointView* out);

}  // namespace dgs::core
