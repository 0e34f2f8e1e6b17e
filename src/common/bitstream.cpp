#include "common/bitstream.hpp"

#include <stdexcept>

#include "common/numeric.hpp"

namespace resim {

void BitWriter::put(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument("BitWriter::put: bits > 64");
  value &= low_mask(bits);
  unsigned remaining = bits;
  while (remaining > 0) {
    const unsigned bit_in_byte = static_cast<unsigned>(bit_count_ % 8);
    if (bit_in_byte == 0) bytes_.push_back(0);
    const unsigned room = 8 - bit_in_byte;
    const unsigned take = remaining < room ? remaining : room;
    bytes_.back() |= static_cast<std::uint8_t>((value & low_mask(take)) << bit_in_byte);
    value >>= take;
    remaining -= take;
    bit_count_ += take;
  }
}

void BitWriter::align_byte() {
  const unsigned rem = static_cast<unsigned>(bit_count_ % 8);
  if (rem != 0) put(0, 8 - rem);
}

std::vector<std::uint8_t> BitWriter::take() && {
  bit_count_ = 0;
  return std::move(bytes_);
}

void BitWriter::clear() {
  bytes_.clear();
  bit_count_ = 0;
}

}  // namespace resim
