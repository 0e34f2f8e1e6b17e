// Bit-level wire format of trace records.
//
// Field layout (LSB-first on the wire):
//   O: fmt(2) tag(1) fu(2)    out(6) in1(6) in2(6)                  = 23 bits
//   M: fmt(2) tag(1) store(1) out(6) in1(6) in2(6) addr(32)         = 54 bits
//   B: fmt(2) tag(1) ctrl(2) taken(1)      in1(6) in2(6)
//      pc(32) target(32)                                            = 82 bits
//
// A call's link-register destination is implied by ctrl==kCall and not
// transmitted. With SPEC-like instruction mixes this format averages
// ~40-46 bits per dynamic instruction, matching the paper's Table 3
// (41.16-47.14, average 43.44).
#ifndef RESIM_TRACE_FORMAT_H
#define RESIM_TRACE_FORMAT_H

#include <array>
#include <cstdint>

#include "common/bitstream.hpp"
#include "trace/record.hpp"

namespace resim::trace {

inline constexpr unsigned kOtherBits = 23;
inline constexpr unsigned kMemBits = 54;
inline constexpr unsigned kBranchBits = 82;

/// Encoded size in bits per format, indexed by the 2-bit format tag.
inline constexpr std::array<unsigned, 3> kRecordBits = {kOtherBits, kMemBits, kBranchBits};

/// Exact encoded size of a record in bits.
[[nodiscard]] constexpr unsigned encoded_bits(const TraceRecord& r) {
  return kRecordBits[static_cast<std::size_t>(r.fmt)];
}

/// Encodes one record; throws std::invalid_argument on a branch record
/// with ctrl == kNone (the 2-bit ctrl field has no encoding for it).
void encode(const TraceRecord& r, BitWriter& w);

/// How decode() ended.
enum class DecodeStatus : std::uint8_t { kOk, kTruncated, kReservedTag };

/// Decodes the record at the cursor into `r` and moves past it: an O or
/// M record from one BitReader::peek(), a B record from two (the second
/// at the target field). A stream that ends before the record does,
/// inside the 2-bit format tag too, is kTruncated; the reserved tag 3 is
/// kReservedTag. Either leaves `r` and the cursor as they were.
[[nodiscard]] inline DecodeStatus decode(BitReader& br, TraceRecord& r) {
  constexpr std::uint64_t kReg = 63;  // 6-bit register field; 63 is kNoReg
  constexpr std::uint64_t kU32 = 0xFFFF'FFFFULL;
  constexpr unsigned kTargetAt = kBranchBits - 32;
  static_assert(kMemBits <= BitReader::kPeekBits && kTargetAt <= BitReader::kPeekBits);
  const auto reg = [](std::uint64_t v) {
    v &= kReg;
    return v == kReg ? kNoReg : static_cast<Reg>(v);
  };

  const std::uint64_t left = br.bits_remaining();
  if (left < 2) return DecodeStatus::kTruncated;
  const std::uint64_t w = br.peek();
  const auto tag = static_cast<unsigned>(w & 3);
  if (tag == 3) return DecodeStatus::kReservedTag;
  if (left < kRecordBits[tag]) return DecodeStatus::kTruncated;

  TraceRecord d;
  d.fmt = static_cast<RecFormat>(tag);
  d.wrong_path = ((w >> 2) & 1) != 0;
  switch (d.fmt) {
    case RecFormat::kOther:
      d.fu = static_cast<OtherFu>((w >> 3) & 3);
      d.out = reg(w >> 5);
      d.in1 = reg(w >> 11);
      d.in2 = reg(w >> 17);
      br.skip(kOtherBits);
      break;
    case RecFormat::kMem:
      d.is_store = ((w >> 3) & 1) != 0;
      d.out = reg(w >> 4);
      d.in1 = reg(w >> 10);
      d.in2 = reg(w >> 16);
      d.addr = (w >> 22) & kU32;
      br.skip(kMemBits);
      break;
    case RecFormat::kBranch:
      d.ctrl = static_cast<isa::CtrlType>(((w >> 3) & 3) + 1);  // 0..3 -> kCond..kRet
      d.taken = ((w >> 5) & 1) != 0;
      d.in1 = reg(w >> 6);
      d.in2 = reg(w >> 12);
      d.pc = (w >> 18) & kU32;
      d.target = br.peek(kTargetAt) & kU32;
      // A call's link destination travels implicitly.
      d.out = d.ctrl == isa::CtrlType::kCall ? kLinkReg : kNoReg;
      br.skip(kBranchBits);
      break;
  }
  r = d;
  return DecodeStatus::kOk;
}

}  // namespace resim::trace

#endif  // RESIM_TRACE_FORMAT_H
