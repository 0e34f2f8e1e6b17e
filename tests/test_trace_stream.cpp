// Streaming trace I/O: FileTraceSource (read and mapped modes) vs.
// VectorTraceSource identity, O(chunk) memory, rewind, single-region
// SegmentedTraceSource runs, and every job source kind x backend in the
// batch runner.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/coupled.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "driver/batch_runner.hpp"
#include "trace/batch_cache.hpp"
#include "trace/file_source.hpp"
#include "trace/segment.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "trace_test_util.hpp"
#include "workload/suite.hpp"

namespace resim::trace {
namespace {

using testutil::records_equal;

Trace generate(const std::string& bench, std::uint64_t insts) {
  TraceGenConfig g;
  g.max_insts = insts;
  return TraceGenerator(workload::make_workload(bench), g).generate();
}

std::string temp_path(const std::string& leaf) { return ::testing::TempDir() + "/" + leaf; }

// ---- FileTraceSource ------------------------------------------------------

TEST(FileTraceSource, RecordStreamMatchesVectorSource) {
  const Trace t = generate("gzip", 6000);
  const std::string path = temp_path("stream_eq.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  FileTraceSource fsrc(path);
  EXPECT_EQ(fsrc.trace_name(), t.name);
  EXPECT_EQ(fsrc.start_pc(), t.start_pc);
  EXPECT_EQ(fsrc.total_records(), t.records.size());
  EXPECT_EQ(fsrc.container_version(), kContainerV2);

  VectorTraceSource vsrc(t);
  while (vsrc.peek() != nullptr) {
    ASSERT_NE(fsrc.peek(), nullptr);
    ASSERT_TRUE(records_equal(fsrc.next(), vsrc.next()));
  }
  EXPECT_EQ(fsrc.peek(), nullptr);
  EXPECT_EQ(fsrc.records_consumed(), vsrc.records_consumed());
  EXPECT_EQ(fsrc.bits_consumed(), vsrc.bits_consumed());
  // The whole trace never sat in memory decoded: at most one chunk did.
  EXPECT_LE(fsrc.max_buffered_records(), 512u);
  std::remove(path.c_str());
}

TEST(FileTraceSource, NextPastEndThrows) {
  Trace t;
  t.name = "empty";
  const std::string path = temp_path("empty.rsim");
  save_trace(t, path);
  FileTraceSource src(path);
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_THROW((void)src.next(), std::out_of_range);
  std::remove(path.c_str());
}

TEST(FileTraceSource, RewindRestartsAndResetsCounters) {
  const Trace t = generate("parser", 3000);
  const std::string path = temp_path("rewind.rsim");
  save_trace(t, path, /*chunk_records=*/256);

  FileTraceSource src(path);
  for (int i = 0; i < 700; ++i) (void)src.next();  // stop mid-chunk
  src.rewind();
  EXPECT_EQ(src.records_consumed(), 0u);
  EXPECT_EQ(src.bits_consumed(), 0u);
  ASSERT_NE(src.peek(), nullptr);
  EXPECT_TRUE(records_equal(*src.peek(), t.records.front()));

  std::uint64_t n = 0;
  while (src.peek() != nullptr) {
    ASSERT_TRUE(records_equal(src.next(), t.records[n]));
    ++n;
  }
  EXPECT_EQ(n, t.records.size());
  std::remove(path.c_str());
}

TEST(FileTraceSource, ReadsLegacyV1Container) {
  // Hand-write a v1 container; the streaming source must read it too
  // (decoding in bounded batches off the resident encoded payload).
  const Trace t = generate("vpr", 2000);
  const std::string path = temp_path("legacy_stream.rsim");
  testutil::write_v1(path, t, t.records.size());
  FileTraceSource src(path);
  EXPECT_EQ(src.container_version(), kContainerV1);
  std::uint64_t n = 0;
  while (src.peek() != nullptr) {
    ASSERT_TRUE(records_equal(src.next(), t.records[n]));
    ++n;
  }
  EXPECT_EQ(n, t.records.size());
  EXPECT_LE(src.max_buffered_records(), kDefaultChunkRecords);
  std::remove(path.c_str());
}

// Engine identity across the whole suite: the acceptance criterion.
class StreamedSimEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamedSimEquivalence, SimResultIdenticalToInMemory) {
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  TraceGenConfig g;
  g.max_insts = 5000;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  const Trace t = TraceGenerator(workload::make_workload(GetParam()), g).generate();

  const std::string path = temp_path("suite_" + GetParam() + ".rsim");
  save_trace(t, path);

  VectorTraceSource vsrc(t);
  const auto rv = core::ReSimEngine(cfg, vsrc).run();
  FileTraceSource fsrc(path);
  const auto rf = core::ReSimEngine(cfg, fsrc).run();

  EXPECT_EQ(rf.committed, rv.committed);
  EXPECT_EQ(rf.fetched, rv.fetched);
  EXPECT_EQ(rf.wrong_path_fetched, rv.wrong_path_fetched);
  EXPECT_EQ(rf.squashed, rv.squashed);
  EXPECT_EQ(rf.major_cycles, rv.major_cycles);
  EXPECT_EQ(rf.minor_cycles, rv.minor_cycles);
  EXPECT_EQ(rf.trace_records, rv.trace_records);
  EXPECT_EQ(rf.trace_bits, rv.trace_bits);
  EXPECT_LE(fsrc.max_buffered_records(), kDefaultChunkRecords);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Suite, StreamedSimEquivalence,
                         ::testing::ValuesIn(workload::suite_names()),
                         [](const auto& info) { return info.param; });

// ---- one region: SegmentedTraceSource as skip / warm-up / cap -----------
//
// `sim --skip S --warmup W --max-records M` is skip_gap(S) then
// open_segment(M) (kAll without a cap); the warm-up is over once W
// records went through or the region ran dry.

bool warmup_done(SegmentedTraceSource& win, std::uint64_t warmup) {
  return win.records_consumed() >= warmup || win.peek() == nullptr;
}

/// An engine run over one region of `base`.
core::SimResult run_region(const core::CoreConfig& cfg, TraceSource& base, std::uint64_t skip,
                           std::uint64_t len) {
  SegmentedTraceSource win(base);
  (void)win.skip_gap(skip);
  win.open_segment(len);
  return core::ReSimEngine(cfg, win).run();
}

TEST(SegmentRegion, ExposesExactlyTheRequestedSlice) {
  const Trace t = generate("gzip", 2000);
  VectorTraceSource base(t);
  SegmentedTraceSource win(base);
  EXPECT_EQ(win.skip_gap(100), 100u);
  win.open_segment(/*warmup=*/50 + /*simulate=*/200);

  std::uint64_t bits = 0;
  for (std::uint64_t i = 0; i < 250; ++i) {
    ASSERT_NE(win.peek(), nullptr) << "window ended early at " << i;
    const auto r = win.next();
    ASSERT_TRUE(records_equal(r, t.records[100 + i]));
    bits += encoded_bits(r);
  }
  EXPECT_EQ(win.peek(), nullptr);  // limit reached with trace left over
  EXPECT_EQ(win.records_consumed(), 250u);
  EXPECT_EQ(win.bits_consumed(), bits);
  // The skipped prefix was consumed from the base but not counted here.
  EXPECT_EQ(base.records_consumed(), 350u);
}

TEST(SegmentRegion, SkipPastEndYieldsEmptyWindow) {
  const Trace t = generate("gzip", 500);
  VectorTraceSource base(t);
  SegmentedTraceSource win(base);
  EXPECT_EQ(win.skip_gap(t.records.size() + 1000), t.records.size());
  win.open_segment(SegmentedTraceSource::kAll);
  EXPECT_EQ(win.peek(), nullptr);
  EXPECT_EQ(win.records_consumed(), 0u);
  EXPECT_TRUE(warmup_done(win, 20));  // an empty window has nothing to warm
  EXPECT_THROW((void)win.next(), std::out_of_range);
}

TEST(SegmentRegion, ZeroLengthWindow) {
  const Trace t = generate("gzip", 500);
  VectorTraceSource base(t);
  SegmentedTraceSource win(base);
  EXPECT_EQ(win.skip_gap(0), 0u);
  win.open_segment(0);
  EXPECT_EQ(win.peek(), nullptr);
  EXPECT_EQ(win.records_consumed(), 0u);
}

TEST(SegmentRegion, WarmupDoneTransitionsAtBoundary) {
  const Trace t = generate("gzip", 500);
  VectorTraceSource base(t);
  SegmentedTraceSource win(base);
  (void)win.skip_gap(10);
  win.open_segment(SegmentedTraceSource::kAll);
  EXPECT_FALSE(warmup_done(win, 20));
  for (int i = 0; i < 19; ++i) (void)win.next();
  EXPECT_FALSE(warmup_done(win, 20));
  (void)win.next();
  EXPECT_TRUE(warmup_done(win, 20));
}

TEST(SegmentRegion, UnlimitedSimulateDrainsToEnd) {
  const Trace t = generate("gzip", 300);
  VectorTraceSource base(t);
  SegmentedTraceSource win(base);
  (void)win.skip_gap(50);
  win.open_segment(SegmentedTraceSource::kAll);
  std::uint64_t n = 0;
  while (win.peek() != nullptr) {
    (void)win.next();
    ++n;
  }
  EXPECT_EQ(n, t.records.size() - 50);
}

TEST(SegmentRegion, OpenSegmentSaturatesInsteadOfWrapping) {
  const Trace t = generate("gzip", 300);
  VectorTraceSource base(t);
  SegmentedTraceSource win(base);
  win.open_segment(5);
  win.open_segment(7);
  EXPECT_EQ(win.remaining(), 12u);
  // An uncapped region after a warm-up grant must stay uncapped, not
  // wrap to a tiny allowance.
  win.open_segment(SegmentedTraceSource::kAll);
  EXPECT_EQ(win.remaining(), SegmentedTraceSource::kAll);
  win.open_segment(1);
  EXPECT_EQ(win.remaining(), SegmentedTraceSource::kAll);
}

// ---- chunk-skipping seek --------------------------------------------------

/// Exactly 4 full 512-record chunks + one 300-record tail chunk, so a
/// skip past the full chunks proves the tail is the only decode.
Trace chunked_trace(const std::string& bench) {
  Trace t = generate(bench, 4000);
  if (t.records.size() < 2348) {
    ADD_FAILURE() << "workload too small: " << t.records.size();
  }
  t.records.resize(2348);  // 4 * 512 + 300
  return t;
}

TEST(FileTraceSource, SkipSeeksWholeChunksUnread) {
  const Trace t = chunked_trace("gzip");
  const std::string path = temp_path("chunk_skip.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  FileTraceSource src(path);
  const std::uint64_t skipped = src.skip(2100);
  EXPECT_EQ(skipped, 2100u);
  EXPECT_EQ(src.records_consumed(), 2100u);
  // All four full chunks were seeked past via their payload_bytes
  // framing, never decoded: only the 300-record tail chunk ever sat in
  // memory.
  EXPECT_EQ(src.chunks_skipped(), 4u);
  EXPECT_EQ(src.max_buffered_records(), 300u);
  // The remainder of the stream is exactly the suffix of the trace.
  for (std::size_t i = 2100; i < t.records.size(); ++i) {
    ASSERT_NE(src.peek(), nullptr);
    ASSERT_TRUE(records_equal(src.next(), t.records[i]));
  }
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_EQ(src.records_consumed(), t.records.size());

  // The decode-everything path (the base-class skip loop) buffers full
  // chunks; the seek path's high-water mark is strictly lower.
  FileTraceSource loop(path);
  std::uint64_t done = 0;
  while (done < 2100 && loop.peek() != nullptr) {
    (void)loop.next();
    ++done;
  }
  EXPECT_EQ(loop.chunks_skipped(), 0u);
  EXPECT_EQ(loop.max_buffered_records(), 512u);
  EXPECT_LT(src.max_buffered_records(), loop.max_buffered_records());
  std::remove(path.c_str());
}

TEST(FileTraceSource, SkipWithinDecodedBufferAndAcrossChunks) {
  const Trace t = chunked_trace("vpr");
  const std::string path = temp_path("chunk_skip_mid.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  FileTraceSource src(path);
  for (int i = 0; i < 10; ++i) (void)src.next();  // chunk 0 is decoded
  // 10 + 1600: drains 502 from the decoded chunk 0, seeks chunks 1-2
  // (1024 records), decodes chunk 3 for the remaining 74.
  EXPECT_EQ(src.skip(1600), 1600u);
  EXPECT_EQ(src.chunks_skipped(), 2u);
  ASSERT_NE(src.peek(), nullptr);
  EXPECT_TRUE(records_equal(*src.peek(), t.records[1610]));
  EXPECT_EQ(src.skip(0), 0u);
  EXPECT_TRUE(records_equal(*src.peek(), t.records[1610]));
  std::remove(path.c_str());
}

TEST(FileTraceSource, SkipPastEndStopsCleanly) {
  const Trace t = chunked_trace("parser");
  const std::string path = temp_path("chunk_skip_eof.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  FileTraceSource src(path);
  EXPECT_EQ(src.skip(~std::uint64_t{0}), t.records.size());
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_EQ(src.records_consumed(), t.records.size());
  EXPECT_EQ(src.chunks_skipped(), 5u);  // every chunk seeked, none decoded
  EXPECT_EQ(src.max_buffered_records(), 0u);

  src.rewind();
  EXPECT_EQ(src.records_consumed(), 0u);
  EXPECT_EQ(src.chunks_skipped(), 0u);
  ASSERT_NE(src.peek(), nullptr);
  EXPECT_TRUE(records_equal(src.next(), t.records.front()));
  std::remove(path.c_str());
}

TEST(FileTraceSource, SkipOnLegacyV1FallsBackToDecode) {
  const Trace t = generate("bzip2", 1500);
  const std::string path = temp_path("v1_skip.rsim");
  testutil::write_v1(path, t, t.records.size());
  FileTraceSource src(path);
  EXPECT_EQ(src.skip(900), 900u);
  EXPECT_EQ(src.chunks_skipped(), 0u);  // v1 has no chunk framing to seek
  ASSERT_NE(src.peek(), nullptr);
  EXPECT_TRUE(records_equal(*src.peek(), t.records[900]));
  std::remove(path.c_str());
}

TEST(SegmentRegion, ChunkSkipSeekKeepsSimResultBitIdentical) {
  // A region whose skip spans
  // whole chunks must produce a bit-identical SimResult while the
  // streaming source seeks those chunks unread (lower decoded
  // high-water mark than the decode-everything path).
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  Trace t;
  {
    TraceGenConfig g;
    g.max_insts = 4000;
    g.bp = cfg.bp;
    g.wrong_path_block = cfg.wrong_path_block();
    t = TraceGenerator(workload::make_workload("gzip"), g).generate();
  }
  ASSERT_GE(t.records.size(), 2348u);
  t.records.resize(2348);  // 4 full 512-record chunks + 300 tail
  const std::string path = temp_path("window_chunk_skip.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  VectorTraceSource vbase(t);
  const auto rv = run_region(cfg, vbase, /*skip=*/2100, SegmentedTraceSource::kAll);

  FileTraceSource fbase(path);
  const auto rf = run_region(cfg, fbase, /*skip=*/2100, SegmentedTraceSource::kAll);

  EXPECT_EQ(rf.committed, rv.committed);
  EXPECT_EQ(rf.fetched, rv.fetched);
  EXPECT_EQ(rf.wrong_path_fetched, rv.wrong_path_fetched);
  EXPECT_EQ(rf.squashed, rv.squashed);
  EXPECT_EQ(rf.major_cycles, rv.major_cycles);
  EXPECT_EQ(rf.minor_cycles, rv.minor_cycles);
  EXPECT_EQ(rf.trace_records, rv.trace_records);
  EXPECT_EQ(rf.trace_bits, rv.trace_bits);

  EXPECT_EQ(fbase.chunks_skipped(), 4u);
  EXPECT_EQ(fbase.max_buffered_records(), 300u);  // only the tail chunk
  EXPECT_LT(fbase.max_buffered_records(), 512u);  // < decode-everything
  std::remove(path.c_str());
}

// ---- one region over BatchTraceSource --------------------------------------
//
// Sampling plans put window starts at arbitrary record indices, so the
// multi-window path routinely skips to the middle of a chunk and warms
// up across a chunk boundary. The shared-cache cursor must stay
// record-exact through both.

TEST(SegmentRegion, BatchSourceSkipLandsMidChunk) {
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  Trace t;
  {
    TraceGenConfig g;
    g.max_insts = 4000;
    g.bp = cfg.bp;
    g.wrong_path_block = cfg.wrong_path_block();
    t = TraceGenerator(workload::make_workload("vortex"), g).generate();
  }
  ASSERT_GE(t.records.size(), 2348u);
  t.records.resize(2348);  // 4 full 512-record chunks + 300 tail
  const std::string path = temp_path("window_batch_mid.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  // 1610 lands inside chunk 3 (records 1536-2047): the cursor must
  // decode that chunk and expose exactly its suffix.
  VectorTraceSource vbase(t);
  const auto rv = run_region(cfg, vbase, /*skip=*/1610, SegmentedTraceSource::kAll);

  BatchTraceSource bbase(std::make_shared<SharedBatchCache>(path));
  const auto rb = run_region(cfg, bbase, /*skip=*/1610, SegmentedTraceSource::kAll);

  EXPECT_EQ(rb.committed, rv.committed);
  EXPECT_EQ(rb.fetched, rv.fetched);
  EXPECT_EQ(rb.wrong_path_fetched, rv.wrong_path_fetched);
  EXPECT_EQ(rb.squashed, rv.squashed);
  EXPECT_EQ(rb.major_cycles, rv.major_cycles);
  EXPECT_EQ(rb.minor_cycles, rv.minor_cycles);
  EXPECT_EQ(rb.trace_records, rv.trace_records);
  EXPECT_EQ(rb.trace_bits, rv.trace_bits);
  std::remove(path.c_str());
}

TEST(SegmentRegion, BatchSourceWarmupCrossesChunkBoundary) {
  const Trace t = chunked_trace("vpr");
  const std::string path = temp_path("window_batch_warm.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  // skip=400, warmup=224: the warm-up region spans records 400-623,
  // crossing the chunk 0 / chunk 1 boundary at 512. The simulate bound
  // then ends mid-chunk 1 at record 923.
  BatchTraceSource base(std::make_shared<SharedBatchCache>(path));
  SegmentedTraceSource win(base);
  (void)win.skip_gap(400);
  win.open_segment(/*warmup=*/224 + /*simulate=*/300);
  EXPECT_FALSE(warmup_done(win, 224));
  for (std::uint64_t i = 0; i < 224; ++i) {
    ASSERT_NE(win.peek(), nullptr);
    ASSERT_TRUE(records_equal(win.next(), t.records[400 + i]));
  }
  EXPECT_TRUE(warmup_done(win, 224));
  for (std::uint64_t i = 224; i < 524; ++i) {
    ASSERT_NE(win.peek(), nullptr);
    ASSERT_TRUE(records_equal(win.next(), t.records[400 + i]));
  }
  EXPECT_EQ(win.peek(), nullptr);  // limit reached mid-chunk
  EXPECT_EQ(win.records_consumed(), 524u);
  std::remove(path.c_str());
}

TEST(SegmentRegion, BatchSourceMultiWindowConsumersStayIndependent) {
  // A sweep gives every job its own BatchTraceSource over one
  // SharedBatchCache; each job's region seeks to a different
  // region. Interleaved cursors must each see exactly their own slice.
  const Trace t = chunked_trace("parser");
  const std::string path = temp_path("window_batch_multi.rsim");
  save_trace(t, path, /*chunk_records=*/512);

  auto cache = std::make_shared<SharedBatchCache>(path, /*expected_consumers=*/2);
  BatchTraceSource a(cache);
  BatchTraceSource b(cache);
  SegmentedTraceSource wa(a);  // chunks 0-1
  SegmentedTraceSource wb(b);  // chunks 3-4
  (void)wa.skip_gap(100);
  wa.open_segment(600);
  (void)wb.skip_gap(1700);
  wb.open_segment(500);
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(records_equal(wa.next(), t.records[100 + i]));
    ASSERT_TRUE(records_equal(wb.next(), t.records[1700 + i]));
  }
  for (std::uint64_t i = 500; i < 600; ++i) {
    ASSERT_TRUE(records_equal(wa.next(), t.records[100 + i]));
  }
  EXPECT_EQ(wa.peek(), nullptr);
  EXPECT_EQ(wb.peek(), nullptr);
  EXPECT_EQ(wa.records_consumed(), 600u);
  EXPECT_EQ(wb.records_consumed(), 500u);
  std::remove(path.c_str());
}

TEST(SegmentRegion, LayersOverFileTraceSource) {
  const Trace t = generate("bzip2", 2000);
  const std::string path = temp_path("window_file.rsim");
  save_trace(t, path, /*chunk_records=*/128);
  FileTraceSource base(path);
  SegmentedTraceSource win(base);
  (void)win.skip_gap(300);
  win.open_segment(400);
  for (std::uint64_t i = 0; i < 400; ++i) {
    ASSERT_NE(win.peek(), nullptr);
    ASSERT_TRUE(records_equal(win.next(), t.records[300 + i]));
  }
  EXPECT_EQ(win.peek(), nullptr);
  std::remove(path.c_str());
}

// ---- MmapTraceSource ------------------------------------------------------

class MmapVsVector : public ::testing::TestWithParam<bool> {};

TEST_P(MmapVsVector, RecordStreamMatchesVectorSource) {
  const bool compress = GetParam();
  const Trace t = generate("gzip", 6000);
  const std::string path = temp_path(compress ? "mmap_lz.rsim" : "mmap_raw.rsim");
  save_trace(t, path, /*chunk_records=*/512, compress);

  MmapTraceSource msrc(path);
  EXPECT_EQ(msrc.trace_name(), t.name);
  EXPECT_EQ(msrc.start_pc(), t.start_pc);
  EXPECT_EQ(msrc.total_records(), t.records.size());
  EXPECT_EQ(msrc.container_version(), compress ? kContainerV3 : kContainerV2);

  VectorTraceSource vsrc(t);
  while (vsrc.peek() != nullptr) {
    ASSERT_NE(msrc.peek(), nullptr);
    ASSERT_TRUE(records_equal(msrc.next(), vsrc.next()));
  }
  EXPECT_EQ(msrc.peek(), nullptr);
  EXPECT_EQ(msrc.records_consumed(), vsrc.records_consumed());
  EXPECT_EQ(msrc.bits_consumed(), vsrc.bits_consumed());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, MmapVsVector, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "v3lz" : "v2raw"; });

TEST(MmapTraceSource, ReadsLegacyV1Container) {
  const Trace t = generate("vpr", 2000);
  const std::string path = temp_path("mmap_v1.rsim");
  testutil::write_v1(path, t, t.records.size());
  MmapTraceSource src(path);
  EXPECT_EQ(src.container_version(), kContainerV1);
  std::uint64_t n = 0;
  while (src.peek() != nullptr) {
    ASSERT_TRUE(records_equal(src.next(), t.records[n]));
    ++n;
  }
  EXPECT_EQ(n, t.records.size());
  std::remove(path.c_str());
}

TEST(MmapTraceSource, NextPastEndThrowsAndEmptyTraceLoads) {
  Trace t;
  t.name = "empty";
  const std::string path = temp_path("mmap_empty.rsim");
  save_trace(t, path, kDefaultChunkRecords, /*compress=*/true);
  MmapTraceSource src(path);
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_THROW((void)src.next(), std::out_of_range);
  std::remove(path.c_str());
}

TEST(MmapTraceSource, RewindRestartsAndResetsCounters) {
  const Trace t = generate("parser", 3000);
  const std::string path = temp_path("mmap_rewind.rsim");
  save_trace(t, path, /*chunk_records=*/256, /*compress=*/true);

  MmapTraceSource src(path);
  for (int i = 0; i < 700; ++i) (void)src.next();  // stop mid-chunk
  src.rewind();
  EXPECT_EQ(src.records_consumed(), 0u);
  EXPECT_EQ(src.bits_consumed(), 0u);
  std::uint64_t n = 0;
  while (src.peek() != nullptr) {
    ASSERT_TRUE(records_equal(src.next(), t.records[n]));
    ++n;
  }
  EXPECT_EQ(n, t.records.size());
  std::remove(path.c_str());
}

TEST(MmapTraceSource, MissingFileRejected) {
  EXPECT_THROW(MmapTraceSource("/nonexistent/path/to.trace"), std::runtime_error);
}

// ---- chunk-skipping seek over compressed chunks ---------------------------

class CompressedChunkSkip : public ::testing::TestWithParam<bool> {};

TEST_P(CompressedChunkSkip, SkipSeeksCompressedChunksUnread) {
  // skip() must hop whole compressed chunks via their compressed_bytes
  // framing without ever decompressing them, on both file backends.
  const bool use_mmap = GetParam();
  const Trace t = chunked_trace("gzip");
  const std::string path = temp_path("lz_skip.rsim");
  save_trace(t, path, /*chunk_records=*/512, /*compress=*/true);

  std::unique_ptr<TraceSource> src;
  std::function<std::uint64_t()> skipped;
  if (use_mmap) {
    auto m = std::make_unique<MmapTraceSource>(path);
    skipped = [p = m.get()] { return p->chunks_skipped(); };
    src = std::move(m);
  } else {
    auto f = std::make_unique<FileTraceSource>(path);
    skipped = [p = f.get()] { return p->chunks_skipped(); };
    src = std::move(f);
  }

  EXPECT_EQ(src->skip(2100), 2100u);
  EXPECT_EQ(src->records_consumed(), 2100u);
  EXPECT_EQ(skipped(), 4u);  // all four full chunks seeked, never inflated
  for (std::size_t i = 2100; i < t.records.size(); ++i) {
    ASSERT_NE(src->peek(), nullptr);
    ASSERT_TRUE(records_equal(src->next(), t.records[i]));
  }
  EXPECT_EQ(src->peek(), nullptr);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Backends, CompressedChunkSkip, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "mmap" : "stream"; });

TEST(SegmentRegion, CompressedMmapWindowedSimBitIdentical) {
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  Trace t;
  {
    TraceGenConfig g;
    g.max_insts = 4000;
    g.bp = cfg.bp;
    g.wrong_path_block = cfg.wrong_path_block();
    t = TraceGenerator(workload::make_workload("gzip"), g).generate();
  }
  ASSERT_GE(t.records.size(), 2348u);
  t.records.resize(2348);
  const std::string path = temp_path("mmap_window_lz.rsim");
  save_trace(t, path, /*chunk_records=*/512, /*compress=*/true);

  VectorTraceSource vbase(t);
  const auto rv = run_region(cfg, vbase, /*skip=*/2100, SegmentedTraceSource::kAll);

  MmapTraceSource mbase(path);
  const auto rm = run_region(cfg, mbase, /*skip=*/2100, SegmentedTraceSource::kAll);

  EXPECT_EQ(rm.committed, rv.committed);
  EXPECT_EQ(rm.major_cycles, rv.major_cycles);
  EXPECT_EQ(rm.minor_cycles, rv.minor_cycles);
  EXPECT_EQ(rm.trace_records, rv.trace_records);
  EXPECT_EQ(rm.trace_bits, rv.trace_bits);
  EXPECT_EQ(mbase.chunks_skipped(), 4u);
  std::remove(path.c_str());
}

// ---- cross-reader differential ---------------------------------------------
//
// One seeded random sequence of peek / next / skip / rewind / drain
// drives every container reader in lockstep — read mode,
// mapped mode and a shared-cache cursor — over v1-v4 containers with
// small chunks, so skips land mid-chunk, on chunk edges and past the
// end, and rewinds hit every state. After every step all readers must
// agree on the records handed out and on every counter.

/// A reader under test, with its non-virtual API bound so one op
/// sequence can drive every reader alike.
struct DiffReader {
  std::string name;
  std::unique_ptr<TraceSource> src;
  std::function<void()> rewind;
  std::function<std::uint64_t()> chunks_skipped;
};

template <typename T>
DiffReader diff_reader(std::string name, std::unique_ptr<T> p) {
  T* raw = p.get();
  return {std::move(name), std::move(p), [raw] { raw->rewind(); },
          [raw] { return raw->chunks_skipped(); }};
}

/// Consumes up to `n` records through peek()/next().
std::vector<TraceRecord> take(TraceSource& src, std::uint64_t n) {
  std::vector<TraceRecord> out;
  while (out.size() < n && src.peek() != nullptr) out.push_back(src.next());
  return out;
}

TEST(CrossReader, RandomOpSequencesAgreeOnEveryContainerVersion) {
  constexpr std::uint32_t kChunk = 64;
  const Trace t = generate("gzip", 3000);
  const std::uint64_t total = t.records.size();
  Rng rng(0x5EEDF00D);
  for (const std::uint32_t version : {kContainerV1, kContainerV2, kContainerV3, kContainerV4}) {
    const std::string path = temp_path("diff_v" + std::to_string(version) + ".rsim");
    if (version == kContainerV1) {
      testutil::write_v1(path, t, total);
    } else {
      save_trace(t, path, kChunk, /*compress=*/version >= kContainerV3,
                 /*prefilter=*/version == kContainerV4);
    }
    std::vector<DiffReader> readers;
    readers.push_back(diff_reader("read", std::make_unique<FileTraceSource>(path)));
    readers.push_back(diff_reader("mapped", std::make_unique<MmapTraceSource>(path)));
    if (version != kContainerV1) {  // the shared cache indexes chunks; v1 has none
      readers.push_back(diff_reader(
          "cache", std::make_unique<BatchTraceSource>(std::make_shared<SharedBatchCache>(path))));
    }

    bool hit_end = false;
    bool mid_rewind = false;
    std::uint64_t max_chunks_skipped = 0;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(10);
      const std::uint64_t pos = readers[0].src->records_consumed();
      hit_end = hit_end || pos == total;
      mid_rewind = mid_rewind || (op == 7 && pos % kChunk != 0 && pos < total);
      std::vector<std::vector<TraceRecord>> got(readers.size());
      std::vector<std::uint64_t> skipped(readers.size(), 0);
      const std::uint64_t n = rng.chance(1, 16) ? total + 1 : rng.below(3 * kChunk + 1);
      for (std::size_t i = 0; i < readers.size(); ++i) {
        TraceSource& src = *readers[i].src;
        switch (op) {
          case 0:
          case 1:  // peek
            if (const TraceRecord* r = src.peek()) got[i].push_back(*r);
            break;
          case 2:
          case 3:  // a run of next() calls
            got[i] = take(src, n % kChunk);
            break;
          case 4:
          case 5:
          case 6:
            skipped[i] = src.skip(n);
            break;
          case 7:
            readers[i].rewind();
            break;
          default:  // a long drain, possibly past the end
            got[i] = take(src, n);
            break;
        }
      }

      const std::string where = "v" + std::to_string(version) + " step " +
                                std::to_string(step) + " op " + std::to_string(op);
      // Records are exactly the trace's, from where the op started.
      for (std::size_t k = 0; k < got[0].size(); ++k) {
        ASSERT_LT(pos + k, total) << where;
        ASSERT_TRUE(records_equal(got[0][k], t.records[pos + k])) << where << " record " << k;
      }
      if (op == 0 || op == 1) {
        EXPECT_EQ(got[0].empty(), pos == total) << where;
      }
      for (std::size_t i = 1; i < readers.size(); ++i) {
        const std::string who = where + " reader " + readers[i].name;
        ASSERT_EQ(got[i].size(), got[0].size()) << who;
        for (std::size_t k = 0; k < got[0].size(); ++k) {
          ASSERT_TRUE(records_equal(got[i][k], got[0][k])) << who << " record " << k;
        }
        ASSERT_EQ(skipped[i], skipped[0]) << who;
        ASSERT_EQ(readers[i].src->records_consumed(), readers[0].src->records_consumed()) << who;
        ASSERT_EQ(readers[i].src->bits_consumed(), readers[0].src->bits_consumed()) << who;
        ASSERT_EQ(readers[i].chunks_skipped(), readers[0].chunks_skipped()) << who;
      }
      max_chunks_skipped = std::max(max_chunks_skipped, readers[0].chunks_skipped());
    }
    // The sequence must have reached the states it exists to compare:
    // the end of the trace, a rewind from mid-stream, and (v2+) the
    // chunk-skipping seek.
    EXPECT_TRUE(hit_end) << "v" << version;
    EXPECT_TRUE(mid_rewind) << "v" << version;
    if (version != kContainerV1) {
      EXPECT_GT(max_chunks_skipped, 0u) << "v" << version;
    }
    readers.clear();
    std::remove(path.c_str());
  }
}

// ---- past-the-end contract ---------------------------------------------------

TEST(TraceSourceContract, NextPastEndThrowsAndLeavesCountersUnchanged) {
  // Every TraceSource: once drained, next() throws std::out_of_range and
  // neither counter moves, however often it is called.
  TraceGenConfig g;
  g.max_insts = 300;
  const Trace t = TraceGenerator(workload::make_workload("gzip"), g).generate();
  const std::string path = temp_path("past_end.rsim");
  save_trace(t, path, /*chunk_records=*/64);

  const auto check = [&](TraceSource& src, const std::string& who) {
    std::uint64_t n = 0;
    while (src.peek() != nullptr) {
      (void)src.next();
      ++n;
    }
    EXPECT_EQ(n, t.records.size()) << who;
    const std::uint64_t records = src.records_consumed();
    const std::uint64_t bits = src.bits_consumed();
    EXPECT_EQ(records, t.records.size()) << who;
    for (int k = 0; k < 2; ++k) {
      EXPECT_THROW((void)src.next(), std::out_of_range) << who;
      EXPECT_EQ(src.records_consumed(), records) << who;
      EXPECT_EQ(src.bits_consumed(), bits) << who;
      EXPECT_EQ(src.peek(), nullptr) << who;
    }
  };

  VectorTraceSource vec(t);
  check(vec, "vector");
  FileTraceSource file(path);
  check(file, "file");
  BatchTraceSource batch(std::make_shared<SharedBatchCache>(path));
  check(batch, "batch");
  VectorTraceSource inner(t);
  SegmentedTraceSource seg(inner);
  seg.open_segment(SegmentedTraceSource::kAll);
  check(seg, "segmented");
  TraceGenerator live(workload::make_workload("gzip"), g);
  baseline::StreamingTraceSource streaming(live);
  check(streaming, "streaming");
  std::remove(path.c_str());
}

// ---- compression ratio on suite workloads ---------------------------------

TEST(TraceFileV3, SuiteWorkloadCompressesAtLeastTwofold) {
  // The acceptance criterion: compressed .rsim for suite workloads at
  // least 2x smaller than v2. Deterministic (seeded tracegen), so this
  // is a stable property of codec + workload, not of the host.
  for (const auto& name : workload::suite_names()) {
    const Trace t = generate(name, 20000);
    const std::string raw_path = temp_path("ratio_raw_" + name + ".rsim");
    const std::string lz_path = temp_path("ratio_lz_" + name + ".rsim");
    save_trace(t, raw_path);
    save_trace(t, lz_path, kDefaultChunkRecords, /*compress=*/true);
    const auto raw_size = std::filesystem::file_size(raw_path);
    const auto lz_size = std::filesystem::file_size(lz_path);
    EXPECT_GE(raw_size, 2 * lz_size)
        << name << ": v2 " << raw_size << " bytes, v3 " << lz_size << " bytes";
    std::remove(raw_path.c_str());
    std::remove(lz_path.c_str());
  }
}

}  // namespace
}  // namespace resim::trace

// ---- streamed jobs in the batch runner ------------------------------------

namespace resim::driver {
namespace {

TEST(BatchRunnerStream, TracePathJobsMatchSharedPreparedTrace) {
  // Config sweep over one prepared on-disk trace: trace_path workers each
  // stream the file (O(chunk) memory) and must match the shared decoded
  // vector bit for bit.
  trace::TraceGenConfig g;
  g.max_insts = 4000;
  auto shared = std::make_shared<trace::Trace>(
      trace::TraceGenerator(workload::make_workload("gzip"), g).generate());
  const std::string path = ::testing::TempDir() + "/trace_path.rsim";
  trace::save_trace(*shared, path);

  std::vector<SimJob> prepared, streamed;
  for (unsigned rob : {8u, 16u}) {
    auto cfg = core::CoreConfig::paper_4wide_perfect();
    cfg.rob_size = rob;
    cfg.lsq_size = rob / 2;
    SimJob job;
    job.label = "rob" + std::to_string(rob);
    job.workload = shared->name;
    job.config = cfg;
    job.trace = shared;
    prepared.push_back(job);
    job.trace = nullptr;
    job.trace_path = path;
    streamed.push_back(job);
  }
  const auto want = BatchRunner(1).run(prepared);
  for (unsigned threads : {1u, 4u}) {
    const auto got = BatchRunner(threads).run(streamed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(csv_row(got[i]), csv_row(want[i]));
    }
  }
  std::remove(path.c_str());
}

// ---- trace.backend dispatch ------------------------------------------------

/// The four ways a job can reach one gzip trace: generated from its
/// gen, a prepared in-memory trace, and trace_path over a raw v2 and a
/// compressed v3 container. Removes its files when destroyed.
struct JobInputs {
  struct Input {
    std::string path;
    std::shared_ptr<const trace::Trace> trace;
  };

  explicit JobInputs(const trace::TraceGenConfig& gen)
      : raw_path(::testing::TempDir() + "/backend_raw.rsim"),
        lz_path(::testing::TempDir() + "/backend_lz.rsim") {
    const auto t = std::make_shared<const trace::Trace>(
        trace::TraceGenerator(workload::make_workload("gzip"), gen).generate());
    trace::save_trace(*t, raw_path);
    trace::save_trace(*t, lz_path, trace::kDefaultChunkRecords, /*compress=*/true);
    all = {Input{}, Input{"", t}, Input{raw_path, nullptr}, Input{lz_path, nullptr}};
  }
  ~JobInputs() {
    std::remove(raw_path.c_str());
    std::remove(lz_path.c_str());
  }
  JobInputs(const JobInputs&) = delete;
  JobInputs& operator=(const JobInputs&) = delete;

  /// `jobs` reading `in` through `backend`.
  static std::vector<SimJob> with(std::vector<SimJob> jobs, const Input& in,
                                  core::TraceBackend backend) {
    for (auto& job : jobs) {
      job.config.trace_backend = backend;
      job.trace_path = in.path;
      job.trace = in.trace;
    }
    return jobs;
  }

  std::string raw_path;
  std::string lz_path;
  std::vector<Input> all;
};

/// Two gzip sweep points that read the same generated trace.
std::vector<SimJob> two_width_jobs() {
  std::vector<SimJob> jobs;
  for (unsigned width : {2u, 4u}) {
    auto cfg = core::CoreConfig::paper_4wide_perfect();
    cfg.width = width;
    cfg.mem_read_ports = width - 1;
    jobs.push_back(SimJob::sweep_point("w" + std::to_string(width), "gzip", cfg, 4000));
  }
  return jobs;
}

constexpr core::TraceBackend kBackends[] = {
    core::TraceBackend::kMemory, core::TraceBackend::kStream, core::TraceBackend::kMmap};

TEST(BatchRunnerBackend, EveryBackendYieldsIdenticalCsvRows) {
  // The backend contract: trace.backend is a host knob, never a result
  // knob. Generated jobs, prepared-trace jobs and trace_path jobs (raw
  // v2 and compressed v3) must produce byte-identical CSV rows on
  // memory, stream and mmap, at any thread count.
  const std::vector<SimJob> jobs = two_width_jobs();
  const auto baseline = BatchRunner(1).run(jobs);
  const JobInputs inputs(jobs[0].gen);

  for (const auto backend : kBackends) {
    for (std::size_t in = 0; in < inputs.all.size(); ++in) {
      const auto variant = JobInputs::with(jobs, inputs.all[in], backend);
      for (unsigned threads : {1u, 4u}) {
        const auto results = BatchRunner(threads).run(variant);
        ASSERT_EQ(results.size(), baseline.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          // The config CSV column set carries no backend column, so rows
          // must match the memory baseline byte for byte.
          EXPECT_EQ(csv_row(results[i]), csv_row(baseline[i]))
              << "backend " << static_cast<int>(backend) << " input " << in
              << " threads " << threads;
        }
      }
    }
  }
}

TEST(BatchRunnerBackend, RunOneMatchesRunForEverySourceKindAndBackend) {
  // run_one is a plan of one job: it must give each job exactly the
  // result it gets inside a grouped run().
  const std::vector<SimJob> jobs = two_width_jobs();
  const JobInputs inputs(jobs[0].gen);
  for (const auto backend : kBackends) {
    for (std::size_t in = 0; in < inputs.all.size(); ++in) {
      const auto variant = JobInputs::with(jobs, inputs.all[in], backend);
      const auto grouped = BatchRunner(2).run(variant);
      ASSERT_EQ(grouped.size(), variant.size());
      for (std::size_t i = 0; i < variant.size(); ++i) {
        EXPECT_EQ(csv_row(BatchRunner::run_one(variant[i])), csv_row(grouped[i]))
            << "backend " << static_cast<int>(backend) << " input " << in << " job " << i;
      }
    }
  }
}

TEST(BatchRunnerBackend, PreparedTraceJobRoundTripsUnderFileBackends) {
  // A shared decoded trace with a non-memory backend round-trips through
  // a private temp file; results must be unchanged (lossless codec).
  trace::TraceGenConfig g;
  g.max_insts = 3000;
  auto shared = std::make_shared<trace::Trace>(
      trace::TraceGenerator(workload::make_workload("vpr"), g).generate());
  SimJob job;
  job.label = "prepared";
  job.workload = shared->name;
  job.config = core::CoreConfig::paper_4wide_perfect();
  job.trace = shared;
  const auto want = BatchRunner::run_one(job);
  for (const auto backend : {core::TraceBackend::kStream, core::TraceBackend::kMmap}) {
    SimJob j = job;
    j.config.trace_backend = backend;
    const auto got = BatchRunner::run_one(j);
    EXPECT_EQ(got.result.committed, want.result.committed);
    EXPECT_EQ(got.result.major_cycles, want.result.major_cycles);
    EXPECT_EQ(got.result.trace_records, want.result.trace_records);
    EXPECT_EQ(got.result.trace_bits, want.result.trace_bits);
  }
}

}  // namespace
}  // namespace resim::driver
