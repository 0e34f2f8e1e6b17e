// Bit-granular serialization used by the trace codec.
//
// ReSim's trace records are variable-length bit strings (paper §V.A:
// "Three formats are used: Branch (B), Memory (M) and Other (O), each
// with its own fields and length"). BitWriter/BitReader pack fields
// LSB-first into a byte buffer; the writer reports exact bit counts so
// the bits-per-instruction statistic of Table 3 falls out of the codec.
// The reader loads a word at a time: one unaligned little-endian 8-byte
// memcpy, or the bytes that remain at the end of the buffer.
#ifndef RESIM_COMMON_BITSTREAM_H
#define RESIM_COMMON_BITSTREAM_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/numeric.hpp"

namespace resim {

static_assert(std::endian::native == std::endian::little,
              "BitReader loads little-endian words with memcpy");

class BitWriter {
 public:
  /// Append the low `bits` bits of `value` (bits in [0,64]).
  void put(std::uint64_t value, unsigned bits);

  void put_bool(bool b) { put(b ? 1 : 0, 1); }

  /// Pad with zero bits to the next byte boundary.
  void align_byte();

  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() &&;

  void clear();

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t bit_count_ = 0;
};

class BitReader {
 public:
  /// Bits peek() guarantees valid: a word minus the largest bit offset.
  static constexpr unsigned kPeekBits = 57;

  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `bits` bits (in [0,64]); throws std::out_of_range past the end.
  [[nodiscard]] std::uint64_t get(unsigned bits) {
    if (bits > 64) throw std::invalid_argument("BitReader::get: bits > 64");
    if (bits > bits_remaining()) throw std::out_of_range("BitReader::get: past end");
    const unsigned shift = static_cast<unsigned>(bit_pos_ % 8);
    std::uint64_t v = peek();
    // A field reaching past the loaded word ends in the ninth byte.
    if (bits + shift > 64) v |= std::uint64_t{data_[bit_pos_ / 8 + 8]} << (64 - shift);
    bit_pos_ += bits;
    return v & low_mask(bits);
  }

  /// The bits from `ahead` bits past the cursor on, LSB-first, without
  /// moving it: the low kPeekBits are the stream's, bits past the end of
  /// the buffer read as zero. The caller checks bits_remaining() for
  /// what it consumes, and ahead < bits_remaining().
  [[nodiscard]] std::uint64_t peek(unsigned ahead = 0) const {
    const std::uint64_t pos = bit_pos_ + ahead;
    const std::size_t byte = static_cast<std::size_t>(pos / 8);
    const std::size_t avail = data_.size() - byte;
    std::uint64_t w = 0;
    if (avail >= 8) [[likely]] {
      std::memcpy(&w, data_.data() + byte, 8);
    } else if (avail != 0) {
      std::memcpy(&w, data_.data() + byte, avail);
    }
    return w >> (pos % 8);
  }

  /// Moves the cursor `bits` forward; bits <= bits_remaining().
  void skip(unsigned bits) { bit_pos_ += bits; }

  /// Skip to the next byte boundary.
  void align_byte() { bit_pos_ = (bit_pos_ + 7) & ~std::uint64_t{7}; }

  [[nodiscard]] std::uint64_t bit_pos() const { return bit_pos_; }
  [[nodiscard]] std::uint64_t bits_remaining() const {
    return data_.size() * 8 - bit_pos_;
  }
  [[nodiscard]] bool exhausted() const { return bits_remaining() == 0; }

 private:
  std::span<const std::uint8_t> data_;
  std::uint64_t bit_pos_ = 0;
};

}  // namespace resim

#endif  // RESIM_COMMON_BITSTREAM_H
