// The dgs.checkpoint.v4 archive vocabulary (src/core/checkpoint.h) at the
// byte level: the exact little-endian bytes each scalar field writes, the
// column() bulk call writing exactly what seq() with per-element scalars
// writes, the reader rejecting an oversized or truncated column before
// it allocates, and the LEB128 column's pinned bytes and its rejection of
// every form the writer never writes.  Session-level round trips live in test_session.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"

namespace dgs::core {
namespace {

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

template <class F>
std::string written(F&& write) {
  BinaryWriter w;
  write(w);
  return hex(w.data());
}

TEST(BinaryWriterBytes, IntegersAreLittleEndian) {
  EXPECT_EQ(written([](BinaryWriter& w) { w.u8(0xA5); }), "a5");
  EXPECT_EQ(written([](BinaryWriter& w) { w.u32(0x01020304u); }),
            "04030201");
  EXPECT_EQ(written([](BinaryWriter& w) { w.u64(0x0102030405060708u); }),
            "0807060504030201");
  EXPECT_EQ(written([](BinaryWriter& w) { w.i32(-1); }), "ffffffff");
  EXPECT_EQ(written([](BinaryWriter& w) {
              w.i64(std::numeric_limits<std::int64_t>::min());
            }),
            "0000000000000080");
  EXPECT_EQ(written([](BinaryWriter& w) { w.b(true); }), "01");
  EXPECT_EQ(written([](BinaryWriter& w) { w.str("ab"); }), "020000006162");
}

// Doubles travel as their IEEE-754 bit pattern, payload and sign included.
TEST(BinaryWriterBytes, DoublesAreTheirBitPatternLittleEndian) {
  const std::pair<double, const char*> cases[] = {
      {-0.0, "0000000000000080"},
      {std::bit_cast<double>(std::uint64_t{0x7FF80000DEADBEEFu}),
       "efbeadde0000f87f"},
      {std::numeric_limits<double>::denorm_min(), "0100000000000000"},
      {std::numeric_limits<double>::infinity(), "000000000000f07f"},
      {-std::numeric_limits<double>::infinity(), "000000000000f0ff"},
      {1.0, "000000000000f03f"},
  };
  for (const auto& [v, want] : cases) {
    EXPECT_EQ(written([v](BinaryWriter& w) { w.f64(v); }), want);
    BinaryWriter w;
    w.f64(v);
    BinaryReader r(w.data());
    double back = 0.0;
    r.f64(back);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << want;
    EXPECT_TRUE(r.done());
  }
}

TEST(BinaryReaderScalars, ReadBackWhatTheWriterWrote) {
  BinaryWriter w;
  w.u8(0xFE);
  w.u64(0x0102030405060708u);
  w.i32(std::numeric_limits<std::int32_t>::min());
  w.i64(-2);
  BinaryReader r(w.data());
  std::uint8_t a = 0;
  std::uint64_t b = 0;
  std::int32_t c = 0;
  std::int64_t d = 0;
  r.u8(a);
  r.u64(b);
  r.i32(c);
  r.i64(d);
  EXPECT_EQ(a, 0xFE);
  EXPECT_EQ(b, 0x0102030405060708u);
  EXPECT_EQ(c, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(d, -2);
  EXPECT_TRUE(r.done());
}

/// Each element through its own scalar field: what column() must equal.
struct Scalar {
  template <class Ar, class T>
  void operator()(Ar& a, T& x) const {
    if constexpr (std::is_same_v<T, double>) {
      a.f64(x);
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      a.i32(x);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      a.u64(x);
    } else {
      a.u8(x);
    }
  }
};

template <class T>
std::string column_bytes(std::vector<T> v) {
  BinaryWriter w;
  w.column(v);
  return w.take();
}

template <class T>
void expect_same_bits(const std::vector<T>& got, const std::vector<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<checkpoint_detail::Bits<T>>(got[i]),
              std::bit_cast<checkpoint_detail::Bits<T>>(want[i]))
        << i;
  }
}

template <class T>
void expect_column_matches_seq(std::vector<T> v) {
  const std::string bytes = column_bytes(v);
  BinaryWriter per_element;
  per_element.seq(v, Scalar{});
  EXPECT_TRUE(bytes == per_element.data()) << hex(bytes);
  // Read back through column() (over stale contents) and through seq().
  std::vector<T> by_column{T{1}, T{2}};
  BinaryReader r(bytes);
  r.column(by_column);
  EXPECT_TRUE(r.done());
  expect_same_bits(by_column, v);
  std::vector<T> by_seq;
  BinaryReader r2(bytes);
  r2.seq(by_seq, Scalar{});
  EXPECT_TRUE(r2.done());
  expect_same_bits(by_seq, v);
}

TEST(BinaryWriterColumn, WritesWhatSeqOfScalarsWrites) {
  expect_column_matches_seq<double>({});
  expect_column_matches_seq<double>(
      {0.0, -0.0, 1.5, std::numeric_limits<double>::denorm_min(),
       -std::numeric_limits<double>::infinity(),
       std::bit_cast<double>(std::uint64_t{0xFFF800000000ABCDu})});
  expect_column_matches_seq<std::int32_t>({});
  expect_column_matches_seq<std::int32_t>(
      {0, -1, 7, std::numeric_limits<std::int32_t>::min(),
       std::numeric_limits<std::int32_t>::max()});
  expect_column_matches_seq<std::uint8_t>({});
  expect_column_matches_seq<std::uint8_t>({0, 1, 2, 0x80, 0xFF});
  expect_column_matches_seq<std::uint64_t>({});
  expect_column_matches_seq<std::uint64_t>(
      {0, 1, std::numeric_limits<std::uint64_t>::max()});
}

TEST(BinaryWriterColumn, PinnedBytes) {
  EXPECT_EQ(hex(column_bytes<double>({})), "0000000000000000");
  EXPECT_EQ(hex(column_bytes<std::int32_t>({-2, 3})),
            "0200000000000000"
            "feffffff03000000");
  EXPECT_EQ(hex(column_bytes<std::uint8_t>({1, 0})),
            "0200000000000000"
            "0100");
}

/// A column whose count is `count`, followed by `body_bytes` bytes.
std::string column_with_count(std::uint64_t count, std::size_t body_bytes) {
  BinaryWriter w;
  w.u64(count);
  return w.take() + std::string(body_bytes, '\x01');
}

template <class T>
void expect_column_rejected(const std::string& bytes) {
  BinaryReader r(bytes);
  std::vector<T> v;
  EXPECT_THROW(r.column(v), std::invalid_argument);
  // Rejected from the count alone, before the vector was sized.
  EXPECT_EQ(v.capacity(), 0u);
}

TEST(BinaryReaderColumn, OversizedCountIsRejectedBeforeAllocating) {
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 61,
        std::numeric_limits<std::uint64_t>::max()}) {
    expect_column_rejected<double>(column_with_count(count, 64));
    expect_column_rejected<std::int32_t>(column_with_count(count, 64));
    expect_column_rejected<std::uint8_t>(column_with_count(count, 64));
  }
}

TEST(BinaryReaderColumn, TruncatedColumnIsRejected) {
  // One byte short of the elements the count promises.
  expect_column_rejected<double>(column_with_count(10, 79));
  expect_column_rejected<std::int32_t>(column_with_count(10, 39));
  expect_column_rejected<std::uint8_t>(column_with_count(10, 9));
  // A count cut short.
  expect_column_rejected<std::uint8_t>(std::string(7, '\0'));
  // Exactly the promised bytes are accepted.
  const std::string exact = column_with_count(10, 80);
  BinaryReader r(exact);
  std::vector<double> v;
  r.column(v);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_TRUE(r.done());
}

// --- leb128(): a count, then 1-5 bytes per u32 ---------------------------

std::string leb128_bytes(std::vector<std::uint32_t> v) {
  BinaryWriter w;
  w.leb128(v);
  return w.take();
}

TEST(BinaryWriterLeb128, PinnedBytes) {
  const std::pair<std::uint32_t, const char*> cases[] = {
      {0, "00"},
      {127, "7f"},
      {128, "8001"},
      {16383, "ff7f"},
      {16384, "808001"},
      {std::numeric_limits<std::uint32_t>::max(), "ffffffff0f"},
  };
  for (const auto& [value, bytes] : cases) {
    EXPECT_EQ(hex(leb128_bytes({value})),
              std::string("0100000000000000") + bytes)
        << value;
  }
  EXPECT_EQ(hex(leb128_bytes({})), "0000000000000000");
  EXPECT_EQ(hex(leb128_bytes({1, 300, 0})),
            "0300000000000000"
            "01ac0200");
}

TEST(BinaryReaderLeb128, ReadsBackWhatTheWriterWrote) {
  std::vector<std::uint32_t> want = {0, 1, 127, 128, 255, 16383, 16384,
                                     (1u << 21) - 1, 1u << 21, 1u << 28,
                                     std::numeric_limits<std::uint32_t>::max()};
  for (std::uint32_t v = 0; v < 70000; v += 97) want.push_back(v);
  const std::string bytes = leb128_bytes(want);
  BinaryReader r(bytes);
  std::vector<std::uint32_t> got = {7, 7};  // Replaced, not appended to.
  r.leb128(got);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(r.done());
}

/// A one-value LEB128 column holding exactly `value_bytes`.
std::string one_value(const std::string& value_bytes) {
  BinaryWriter w;
  w.u64(1);
  return w.take() + value_bytes;
}

void expect_leb128_rejected(const std::string& bytes) {
  BinaryReader r(bytes);
  std::vector<std::uint32_t> v;
  EXPECT_THROW(r.leb128(v), std::invalid_argument) << hex(bytes);
}

TEST(BinaryReaderLeb128, NonCanonicalFormsAreRejected) {
  // Overlong: 0 and 1 padded with a continuation byte.
  expect_leb128_rejected(one_value(std::string("\x80\x00", 2)));
  expect_leb128_rejected(one_value(std::string("\x81\x80\x00", 3)));
  // A sixth byte.
  expect_leb128_rejected(one_value("\xff\xff\xff\xff\x8f\x01"));
  // Bits above 2^32 - 1 in the fifth byte.
  expect_leb128_rejected(one_value("\xff\xff\xff\xff\x1f"));
  expect_leb128_rejected(one_value(std::string("\x80\x80\x80\x80\x10", 5)));
  // The shortest forms of the same values are accepted.
  for (const std::string& ok :
       {std::string(1, '\0'), std::string("\x01"),
        std::string("\xff\xff\xff\xff\x0f")}) {
    const std::string bytes = one_value(ok);
    BinaryReader r(bytes);
    std::vector<std::uint32_t> v;
    r.leb128(v);
    EXPECT_TRUE(r.done());
  }
}

TEST(BinaryReaderLeb128, TruncatedTailIsRejected) {
  // The last value's continuation byte promises one more byte.
  expect_leb128_rejected(one_value("\x80"));
  expect_leb128_rejected(one_value("\xff\xff\xff\xff"));
  // Two values promised, one present.
  BinaryWriter w;
  w.u64(2);
  expect_leb128_rejected(w.take() + "\x05");
}

TEST(BinaryReaderLeb128, OversizedCountIsRejectedBeforeAllocating) {
  for (const std::uint64_t count :
       {std::uint64_t{65}, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::string bytes = column_with_count(count, 64);
    BinaryReader r(bytes);
    std::vector<std::uint32_t> v;
    EXPECT_THROW(r.leb128(v), std::invalid_argument) << count;
    EXPECT_EQ(v.capacity(), 0u);
  }
}

}  // namespace
}  // namespace dgs::core
