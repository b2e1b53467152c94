// CRC-32 reference vectors and incremental API, plus an oracle check of
// the table-driven CRC against a bit-at-a-time reference.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace dgs::util {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, CheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes("incremental-crc-check-data-0123456789");
  for (std::size_t split = 0; split <= data.size(); split += 5) {
    std::uint32_t s = crc32_init();
    s = crc32_update(s, std::span(data).subspan(0, split));
    s = crc32_update(s, std::span(data).subspan(split));
    EXPECT_EQ(crc32_final(s), crc32(data)) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  auto data = bytes("payload under test");
  const std::uint32_t good = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 3) {
    for (int bit = 0; bit < 8; bit += 2) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(data), good) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

/// The CRC-32 definition itself, one bit at a time: the oracle the
/// table-driven crc32 must equal on every input.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

TEST(Crc32, OracleCheckValue) {
  EXPECT_EQ(crc32_bitwise(bytes("123456789")), 0xCBF43926u);
}

// Every length 0..300 at every start offset 0..7: covers each tail length
// after the 8-byte blocks and every alignment of the first block.
TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buf = random_bytes(300 + 8, 20201104);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto data = std::span(buf).subspan(offset, len);
      ASSERT_EQ(crc32(data), crc32_bitwise(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalMatchesOneShotAtEveryCut) {
  const std::vector<std::uint8_t> data = random_bytes(100, 7);
  const std::uint32_t whole = crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    std::uint32_t s = crc32_init();
    s = crc32_update(s, std::span(data).subspan(0, cut));
    s = crc32_update(s, std::span(data).subspan(cut));
    ASSERT_EQ(crc32_final(s), whole) << "cut " << cut;
  }
}

}  // namespace
}  // namespace dgs::util
