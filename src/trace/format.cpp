#include "trace/format.hpp"

#include <stdexcept>

namespace resim::trace {

namespace {
constexpr unsigned kRegBits = 6;
constexpr std::uint64_t kRegNone = 63;  // wire encoding of kNoReg

std::uint64_t reg_to_wire(Reg r) { return r == kNoReg ? kRegNone : r; }
}  // namespace

void encode(const TraceRecord& r, BitWriter& w) {
  w.put(static_cast<std::uint64_t>(r.fmt), 2);
  w.put_bool(r.wrong_path);
  switch (r.fmt) {
    case RecFormat::kOther:
      w.put(static_cast<std::uint64_t>(r.fu), 2);
      w.put(reg_to_wire(r.out), kRegBits);
      w.put(reg_to_wire(r.in1), kRegBits);
      w.put(reg_to_wire(r.in2), kRegBits);
      break;
    case RecFormat::kMem:
      w.put_bool(r.is_store);
      w.put(reg_to_wire(r.out), kRegBits);
      w.put(reg_to_wire(r.in1), kRegBits);
      w.put(reg_to_wire(r.in2), kRegBits);
      w.put(r.addr, 32);
      break;
    case RecFormat::kBranch:
      // The 2-bit wire field maps kCond..kRet to 0..3; kNone has no
      // encoding and would wrap to 2^64-1 and round-trip as kRet.
      if (r.ctrl == isa::CtrlType::kNone) {
        throw std::invalid_argument("encode: branch record with ctrl == kNone");
      }
      w.put(static_cast<std::uint64_t>(r.ctrl) - 1, 2);  // kCond..kRet -> 0..3
      w.put_bool(r.taken);
      w.put(reg_to_wire(r.in1), kRegBits);
      w.put(reg_to_wire(r.in2), kRegBits);
      w.put(r.pc, 32);
      w.put(r.target, 32);
      break;
  }
}

}  // namespace resim::trace
