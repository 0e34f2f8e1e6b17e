// Hardware window structures: ROB, LSQ, rename table, FU pool.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/fu.hpp"
#include "core/lsq.hpp"
#include "core/rename.hpp"
#include "core/rob.hpp"

namespace resim::core {
namespace {

// ---- Rob -----------------------------------------------------------------

TEST(Rob, AllocateInProgramOrder) {
  Rob rob(4);
  const int a = rob.allocate();
  const int b = rob.allocate();
  EXPECT_EQ(rob.slot_at(0), a);
  EXPECT_EQ(rob.slot_at(1), b);
  EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, FullRejectsAllocation) {
  Rob rob(2);
  rob.allocate();
  rob.allocate();
  EXPECT_TRUE(rob.full());
  EXPECT_THROW(rob.allocate(), std::logic_error);
}

TEST(Rob, PopHeadAdvances) {
  Rob rob(3);
  const int a = rob.allocate();
  rob.entry(a).fi.seq = 10;
  const int b = rob.allocate();
  rob.entry(b).fi.seq = 11;
  EXPECT_EQ(rob.head().fi.seq, 10u);
  rob.pop_head();
  EXPECT_EQ(rob.head().fi.seq, 11u);
  rob.pop_head();
  EXPECT_TRUE(rob.empty());
  EXPECT_THROW(rob.pop_head(), std::logic_error);
}

TEST(Rob, WrapAroundReusesSlots) {
  Rob rob(2);
  for (int i = 0; i < 10; ++i) {
    const int s = rob.allocate();
    rob.entry(s).fi.seq = static_cast<InstSeq>(i);
    EXPECT_EQ(rob.head().fi.seq, static_cast<InstSeq>(i));
    rob.pop_head();
  }
}

TEST(Rob, AgeOfInvertsSlotAtAcrossWraparound) {
  // A capacity that is not a power of two, with the head walked all the
  // way round the ring: age_of(slot_at(i)) == i at every head position.
  Rob rob(3);
  for (int round = 0; round < 7; ++round) {
    while (!rob.full()) rob.allocate();
    for (unsigned i = 0; i < rob.size(); ++i) EXPECT_EQ(rob.age_of(rob.slot_at(i)), i);
    EXPECT_THROW((void)rob.slot_at(rob.size()), std::out_of_range);
    rob.pop_head();
  }
}

TEST(Rob, AllocateResetsEntryState) {
  Rob rob(1);  // one slot, so the second allocation reuses the first's
  const int first = rob.allocate();
  rob.entry(first).issued = true;
  rob.entry(first).completed = true;
  rob.entry(first).dep_head = 3;
  rob.pop_head();
  const int s = rob.allocate();
  ASSERT_EQ(s, first);
  EXPECT_FALSE(rob.entry(s).issued);
  EXPECT_FALSE(rob.entry(s).completed);
  EXPECT_EQ(rob.entry(s).src_pending, 0u);
  EXPECT_EQ(rob.entry(s).dep_head, -1);  // a reused slot starts with no dependents
}

TEST(Rob, ClearEmptiesWindow) {
  Rob rob(4);
  rob.allocate();
  rob.allocate();
  rob.clear();
  EXPECT_TRUE(rob.empty());
  EXPECT_THROW((void)rob.slot_at(0), std::out_of_range);
}

// ---- Lsq -----------------------------------------------------------------

TEST(Lsq, ProgramOrderMaintained) {
  Lsq lsq(4);
  const int a = lsq.allocate();
  lsq.entry(a).seq = 1;
  const int b = lsq.allocate();
  lsq.entry(b).seq = 2;
  EXPECT_EQ(lsq.entry(lsq.slot_at(0)).seq, 1u);
  EXPECT_EQ(lsq.entry(lsq.slot_at(1)).seq, 2u);
}

TEST(Lsq, AddrReadyGating) {
  LsqEntry e;
  EXPECT_FALSE(e.addr_ready(1000));  // kNever
  e.addr_ready_at = 5;
  EXPECT_FALSE(e.addr_ready(4));
  EXPECT_TRUE(e.addr_ready(5));
}

TEST(Lsq, FullAndClear) {
  Lsq lsq(2);
  lsq.allocate();
  lsq.allocate();
  EXPECT_TRUE(lsq.full());
  EXPECT_THROW(lsq.allocate(), std::logic_error);
  lsq.clear();
  EXPECT_TRUE(lsq.empty());
}

// ---- RenameTable ------------------------------------------------------------

TEST(Rename, LookupDefaultsReady) {
  RenameTable rt;
  EXPECT_EQ(rt.lookup(5), -1);
  EXPECT_EQ(rt.lookup(kNoReg), -1);
  EXPECT_EQ(rt.lookup(kZeroReg), -1);
}

TEST(Rename, SetAndLookup) {
  RenameTable rt;
  rt.set(5, 3);
  EXPECT_EQ(rt.lookup(5), 3);
}

TEST(Rename, ZeroRegisterNeverRenamed) {
  RenameTable rt;
  rt.set(kZeroReg, 7);
  EXPECT_EQ(rt.lookup(kZeroReg), -1);
}

TEST(Rename, ClearIfOnlyMatchingSlot) {
  RenameTable rt;
  rt.set(5, 3);
  rt.clear_if(5, 4);  // a younger producer overwrote: no-op
  EXPECT_EQ(rt.lookup(5), 3);
  rt.clear_if(5, 3);
  EXPECT_EQ(rt.lookup(5), -1);
}

TEST(Rename, ClearWipesAll) {
  RenameTable rt;
  rt.set(1, 1);
  rt.set(2, 2);
  rt.clear();
  EXPECT_EQ(rt.lookup(1), -1);
  EXPECT_EQ(rt.lookup(2), -1);
}

// ---- FuPool -----------------------------------------------------------------

FuPool paper_pool() {
  // 4 ALU (lat 1, pipelined), 1 MUL (lat 3, pipelined), 1 DIV (lat 10, unpipelined)
  return FuPool(4, 1, true, 1, 3, true, 1, 10, false);
}

TEST(FuPool, FourAlusPerCycle) {
  FuPool p = paper_pool();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(p.try_issue(trace::OtherFu::kAlu, 0).has_value());
  }
  EXPECT_FALSE(p.try_issue(trace::OtherFu::kAlu, 0).has_value());  // 5th stalls
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kAlu, 1).has_value());   // next cycle
}

TEST(FuPool, PipelinedMultiplierAcceptsEveryCycle) {
  FuPool p = paper_pool();
  EXPECT_EQ(p.try_issue(trace::OtherFu::kMul, 0).value(), 3u);
  EXPECT_FALSE(p.try_issue(trace::OtherFu::kMul, 0).has_value());  // one unit
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kMul, 1).has_value());   // pipelined
}

TEST(FuPool, UnpipelinedDividerBlocksForLatency) {
  FuPool p = paper_pool();
  EXPECT_EQ(p.try_issue(trace::OtherFu::kDiv, 0).value(), 10u);
  for (Cycle c = 1; c < 10; ++c) {
    EXPECT_FALSE(p.try_issue(trace::OtherFu::kDiv, c).has_value()) << c;
  }
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kDiv, 10).has_value());
}

TEST(FuPool, NoneNeedsNoUnit) {
  FuPool p = paper_pool();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.try_issue(trace::OtherFu::kNone, 0).value(), 1u);
  }
}

TEST(FuPool, ResetFreesEverything) {
  FuPool p = paper_pool();
  (void)p.try_issue(trace::OtherFu::kDiv, 0);
  p.reset();
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kDiv, 0).has_value());
}

TEST(FuPool, AluCountAccessor) {
  EXPECT_EQ(paper_pool().alu_count(), 4u);
}

// ---- CoreConfig ----------------------------------------------------------------

TEST(CoreConfig, PaperConfigsValidate) {
  EXPECT_NO_THROW(CoreConfig::paper_4wide_perfect().validate());
  EXPECT_NO_THROW(CoreConfig::paper_2wide_cache().validate());
}

TEST(CoreConfig, OptimizedRequiresFewerMemPorts) {
  // §IV.B: N+3 pipeline valid only with <= N-1 memory ports.
  CoreConfig c = CoreConfig::paper_4wide_perfect();
  c.mem_read_ports = 4;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.mem_read_ports = 3;
  EXPECT_NO_THROW(c.validate());
  c.variant = PipelineVariant::kEfficient;
  c.mem_read_ports = 4;
  EXPECT_NO_THROW(c.validate());  // restriction is Optimized-only
}

TEST(CoreConfig, WrongPathBlockIsRobPlusIfq) {
  const CoreConfig c = CoreConfig::paper_4wide_perfect();
  EXPECT_EQ(c.wrong_path_block(), c.rob_size + c.ifq_size);
  EXPECT_EQ(c.wrong_path_block(), 24u);  // paper's conservative size
}

}  // namespace
}  // namespace resim::core
