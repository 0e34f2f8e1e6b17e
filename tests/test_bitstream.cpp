// BitWriter/BitReader: the bit-granular codec under the trace format.
#include "common/bitstream.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/numeric.hpp"
#include "common/rng.hpp"

namespace resim {
namespace {

TEST(BitWriter, EmptyHasNoBits) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriter, SingleBit) {
  BitWriter w;
  w.put_bool(true);
  EXPECT_EQ(w.bit_count(), 1u);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0x01);
}

TEST(BitWriter, PacksLsbFirst) {
  BitWriter w;
  w.put(0b101, 3);
  w.put(0b11, 2);
  // bits: 1,0,1 then 1,1 -> 0b00011101
  EXPECT_EQ(w.bytes()[0], 0b00011101);
}

TEST(BitWriter, MasksValueToWidth) {
  BitWriter w;
  w.put(0xFF, 3);  // only low 3 bits survive
  EXPECT_EQ(w.bytes()[0], 0x07);
  EXPECT_EQ(w.bit_count(), 3u);
}

TEST(BitWriter, SixtyFourBitValue) {
  BitWriter w;
  w.put(0xDEADBEEFCAFEF00DULL, 64);
  EXPECT_EQ(w.bit_count(), 64u);
  BitReader r(w.bytes());
  EXPECT_EQ(r.get(64), 0xDEADBEEFCAFEF00DULL);
}

TEST(BitWriter, ZeroWidthPutIsNoop) {
  BitWriter w;
  w.put(123, 0);
  EXPECT_EQ(w.bit_count(), 0u);
}

TEST(BitWriter, RejectsOverwideField) {
  BitWriter w;
  EXPECT_THROW(w.put(0, 65), std::invalid_argument);
}

TEST(BitWriter, AlignByte) {
  BitWriter w;
  w.put(1, 3);
  w.align_byte();
  EXPECT_EQ(w.bit_count(), 8u);
  w.align_byte();  // already aligned: no change
  EXPECT_EQ(w.bit_count(), 8u);
}

TEST(BitWriter, ClearResets) {
  BitWriter w;
  w.put(0xFF, 8);
  w.clear();
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitReader, CrossByteField) {
  BitWriter w;
  w.put(0x3, 4);
  w.put(0x155, 12);  // spans byte boundary
  BitReader r(w.bytes());
  EXPECT_EQ(r.get(4), 0x3u);
  EXPECT_EQ(r.get(12), 0x155u);
}

TEST(BitReader, ThrowsPastEnd) {
  BitWriter w;
  w.put(0xAB, 8);
  BitReader r(w.bytes());
  (void)r.get(8);
  EXPECT_THROW((void)r.get(1), std::out_of_range);
}

TEST(BitReader, BitsRemaining) {
  BitWriter w;
  w.put(0, 16);
  BitReader r(w.bytes());
  EXPECT_EQ(r.bits_remaining(), 16u);
  (void)r.get(5);
  EXPECT_EQ(r.bits_remaining(), 11u);
  EXPECT_FALSE(r.exhausted());
}

TEST(BitReader, AlignByteSkips) {
  BitWriter w;
  w.put(0b1, 1);
  w.align_byte();
  w.put(0xCC, 8);
  BitReader r(w.bytes());
  (void)r.get(1);
  r.align_byte();
  EXPECT_EQ(r.get(8), 0xCCu);
}

TEST(BitStream, TakeMovesBuffer) {
  BitWriter w;
  w.put(0x42, 8);
  auto bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x42);
}

TEST(BitReader, PeekZeroFillsPastTheEnd) {
  const std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF};
  BitReader r(bytes);
  r.skip(3);
  EXPECT_EQ(r.peek(), 0x1FFFFFu);  // the 21 bits left, then zeros
  r.skip(21);
  EXPECT_EQ(r.peek(), 0u);
}

/// get() near the end of a buffer, where the word load is built from the
/// bytes that remain: fields of 1..64 bits starting at every bit of the
/// last 9 bytes read what a bit-by-bit extraction reads, or throw when
/// they run past the end and leave the cursor where it was.
TEST(BitReader, FieldsStartingInTheLastNineBytes) {
  Rng rng(7);
  for (std::size_t size : {9u, 10u, 16u, 23u}) {
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    const auto bit_at = [&](std::uint64_t pos) -> std::uint64_t {
      return (bytes[pos / 8] >> (pos % 8)) & 1u;
    };
    const std::uint64_t end = size * 8;
    for (std::uint64_t start = (size - 9) * 8; start < end; ++start) {
      for (unsigned bits = 1; bits <= 64; ++bits) {
        BitReader r(bytes);
        r.skip(static_cast<unsigned>(start));
        if (start + bits > end) {
          EXPECT_THROW((void)r.get(bits), std::out_of_range) << start << "+" << bits;
          EXPECT_EQ(r.bit_pos(), start);
          continue;
        }
        std::uint64_t want = 0;
        for (unsigned i = 0; i < bits; ++i) want |= bit_at(start + i) << i;
        ASSERT_EQ(r.get(bits), want) << "size " << size << " start " << start
                                     << " bits " << bits;
        EXPECT_EQ(r.bit_pos(), start + bits);
      }
    }
  }
}

/// Property: random field sequences round-trip exactly.
class BitstreamRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitstreamRoundTrip, RandomFields) {
  Rng rng(GetParam());
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 500; ++i) {
    const unsigned bits = 1 + static_cast<unsigned>(rng.below(64));
    const std::uint64_t value = rng.next() & low_mask(bits);
    fields.emplace_back(value, bits);
    w.put(value, bits);
  }
  BitReader r(w.bytes());
  for (const auto& [value, bits] : fields) {
    EXPECT_EQ(r.get(bits), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitstreamRoundTrip,
                         ::testing::Values(1, 2, 3, 42, 0xBEEF, 99991));

}  // namespace
}  // namespace resim
