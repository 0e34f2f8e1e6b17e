#include "workload/micro.hpp"

#include "isa/asmbuilder.hpp"

namespace resim::workload {

using detail::kBase;
using detail::kIter;
using detail::li32;
using detail::outer_epilogue;
using detail::outer_prologue;
using isa::AsmBuilder;
using isa::Opcode;

namespace {

Workload finish(AsmBuilder& a, const std::string& name, std::uint64_t seed = 1,
                std::uint64_t mem_size = 1 << 22) {
  Workload w;
  w.name = name;
  w.program = a.build();
  w.fsim.mem_seed = seed;
  w.fsim.mem_size_bytes = mem_size;
  return w;
}

}  // namespace

Workload make_dep_chain_alu(std::uint32_t iterations, int length) {
  AsmBuilder a("dep_chain_alu");
  outer_prologue(a, iterations);
  a.li(2, 1);
  a.label("loop");
  for (int i = 0; i < length; ++i) a.add(2, 2, 2);  // serial dependence
  outer_epilogue(a, "loop");
  return finish(a, "dep_chain_alu");
}

Workload make_indep_alu(std::uint32_t iterations, int streams, int length) {
  AsmBuilder a("indep_alu");
  outer_prologue(a, iterations);
  for (int s = 0; s < streams; ++s) a.li(static_cast<Reg>(2 + s), s + 1);
  a.label("loop");
  for (int i = 0; i < length; ++i) {
    const Reg r = static_cast<Reg>(2 + (i % streams));
    a.add(r, r, r);  // streams are mutually independent
  }
  outer_epilogue(a, "loop");
  return finish(a, "indep_alu");
}

Workload make_mul_chain(std::uint32_t iterations, int length) {
  AsmBuilder a("mul_chain");
  outer_prologue(a, iterations);
  a.li(2, 3);
  a.label("loop");
  for (int i = 0; i < length; ++i) a.mul(2, 2, 2);
  outer_epilogue(a, "loop");
  return finish(a, "mul_chain");
}

Workload make_div_chain(std::uint32_t iterations, int length) {
  AsmBuilder a("div_chain");
  outer_prologue(a, iterations);
  a.li(2, 1 << 20);
  a.li(3, 1);
  a.label("loop");
  for (int i = 0; i < length; ++i) a.div(2, 2, 3);  // value-preserving divide by 1
  outer_epilogue(a, "loop");
  return finish(a, "div_chain");
}

Workload make_indep_div(std::uint32_t iterations, int streams, int length) {
  AsmBuilder a("indep_div");
  outer_prologue(a, iterations);
  const Reg one = 2;
  a.li(one, 1);
  for (int s = 0; s < streams; ++s) a.li(static_cast<Reg>(3 + s), (s + 1) << 20);
  a.label("loop");
  for (int i = 0; i < length; ++i) {
    // Sources are never written and each destination is only written,
    // so no divide waits on another's result — only on the divider.
    const int s = i % streams;
    a.div(static_cast<Reg>(3 + streams + s), static_cast<Reg>(3 + s), one);
  }
  outer_epilogue(a, "loop");
  return finish(a, "indep_div");
}

Workload make_pointer_chase(std::uint32_t iterations, int length) {
  AsmBuilder a("pointer_chase");
  outer_prologue(a, iterations);
  a.add(2, kBase, kZeroReg);  // r2 = node pointer
  a.label("loop");
  for (int i = 0; i < length; ++i) {
    a.lw(3, 2, 0);               // r3 = mem[r2] (random word)
    a.andi(3, 3, 0x3FFF8);       // bound the next offset
    a.add(2, kBase, 3);          // next pointer depends on the load
  }
  outer_epilogue(a, "loop");
  return finish(a, "pointer_chase");
}

Workload make_taken_loop(std::uint32_t iterations, int body_size) {
  AsmBuilder a("taken_loop");
  outer_prologue(a, iterations);
  a.li(2, 0);
  a.label("loop");
  for (int i = 0; i < body_size - 2; ++i) a.addi(2, 2, 1);
  outer_epilogue(a, "loop");  // addi + bne: back branch taken each iteration
  return finish(a, "taken_loop");
}

Workload make_periodic_branch(std::uint32_t iterations, int period) {
  AsmBuilder a("periodic_branch");
  outer_prologue(a, iterations);
  a.li(2, 0);  // phase counter
  a.label("loop");
  a.addi(2, 2, 1);
  a.andi(3, 2, period - 1);
  a.bne(3, kZeroReg, "skip");  // not-taken once per `period`
  a.addi(4, 4, 1);
  a.label("skip");
  a.addi(5, 5, 1);
  outer_epilogue(a, "loop");
  return finish(a, "periodic_branch");
}

Workload make_random_branch(std::uint32_t iterations) {
  AsmBuilder a("random_branch");
  outer_prologue(a, iterations);
  a.li(2, 0);  // cursor
  a.label("loop");
  a.slli(3, 2, 3);
  a.add(3, kBase, 3);
  a.lw(4, 3, 0);           // random word from the image
  a.andi(4, 4, 1);         // 50/50 bit
  a.bne(4, kZeroReg, "t"); // unpredictable
  a.addi(5, 5, 1);
  a.label("t");
  a.addi(2, 2, 1);
  a.andi(2, 2, 0xFFF);
  outer_epilogue(a, "loop");
  return finish(a, "random_branch");
}

Workload make_call_ladder(std::uint32_t iterations, int depth) {
  AsmBuilder a("call_ladder");
  outer_prologue(a, iterations);
  // r28 = software return-stack pointer (link regs are saved to memory so
  // nested calls through the single link register are well-defined).
  li32(a, 28, static_cast<std::uint32_t>(funcsim::MemoryImage::kDataBase) + 0x8000);
  a.label("loop");
  a.call("f0");
  outer_epilogue(a, "loop");
  for (int d = 0; d < depth; ++d) {
    // std::string("f").append(...) sidesteps GCC 12's -Wrestrict false
    // positive on operator+(const char*, std::string&&) at -O3 (PR105651).
    a.label(std::string("f").append(std::to_string(d)));
    a.sw(kLinkReg, 28, 0);        // push link
    a.addi(28, 28, 8);
    a.addi(9, 9, 1);              // body work
    if (d + 1 < depth) a.call(std::string("f").append(std::to_string(d + 1)));
    a.addi(9, 9, 1);
    a.addi(28, 28, -8);           // pop link
    a.lw(kLinkReg, 28, 0);
    a.ret();
  }
  return finish(a, "call_ladder");
}

Workload make_store_load_forward(std::uint32_t iterations) {
  AsmBuilder a("store_load_forward");
  outer_prologue(a, iterations);
  a.li(2, 7);
  a.label("loop");
  a.addi(2, 2, 3);
  a.sw(2, kBase, 0x100);   // store ...
  a.lw(3, kBase, 0x100);   // ... immediately reloaded (forwardable)
  a.add(4, 3, 3);
  outer_epilogue(a, "loop");
  return finish(a, "store_load_forward");
}

Workload make_stream_read(std::uint32_t iterations, std::uint32_t footprint) {
  AsmBuilder a("stream_read");
  outer_prologue(a, iterations);
  a.li(2, 0);
  a.label("loop");
  for (int u = 0; u < 4; ++u) {
    a.add(4, kBase, 2);
    a.lw(static_cast<Reg>(5 + u), 4, u * 8);
    a.add(10, 10, static_cast<Reg>(5 + u));
  }
  a.addi(2, 2, 32);
  li32(a, 3, footprint - 1);
  a.and_(2, 2, 3);  // wrap cursor inside the footprint
  outer_epilogue(a, "loop");
  return finish(a, "stream_read", 1, 1 << 24);
}

}  // namespace resim::workload
