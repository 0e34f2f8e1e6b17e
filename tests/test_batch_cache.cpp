// SharedBatchCache / BatchTraceSource: decode-once fan-out identity.
//
// The bar for every test here is byte-identity: reading a trace through
// the shared-batch plane (SoA batches, one producer, N consumers) must
// be indistinguishable — records, counters, engine results, sweep CSVs —
// from the private per-job sources it replaces.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

/// Saves `t` in the container flavor `flavor` ("v2", "v3", "v4").
std::string save_flavor(const Trace& t, const std::string& leaf,
                        const std::string& flavor, std::uint32_t chunk_records = 512) {
  const std::string path = temp_path(leaf + "_" + flavor + ".rsim");
  save_trace(t, path, chunk_records, /*compress=*/flavor != "v2",
             /*prefilter=*/flavor == "v4");
  return path;
}

// ---- record-stream identity ----------------------------------------------

TEST(BatchTraceSource, DrainMatchesFileSourceAcrossContainerVersions) {
  const Trace t = generate("gzip", 6000);
  for (const std::string flavor : {"v2", "v3", "v4"}) {
    const std::string path = save_flavor(t, "drain", flavor);
    FileTraceSource want(path);
    BatchTraceSource got(std::make_shared<SharedBatchCache>(path));

    EXPECT_EQ(got.trace_name(), want.trace_name());
    EXPECT_EQ(got.start_pc(), want.start_pc());
    EXPECT_EQ(got.total_records(), want.total_records());
    EXPECT_EQ(got.container_version(), want.container_version());

    while (want.peek() != nullptr) {
      ASSERT_NE(got.peek(), nullptr) << flavor;
      ASSERT_TRUE(records_equal(got.next(), want.next())) << flavor;
    }
    EXPECT_EQ(got.peek(), nullptr) << flavor;
    EXPECT_EQ(got.records_consumed(), want.records_consumed()) << flavor;
    EXPECT_EQ(got.bits_consumed(), want.bits_consumed()) << flavor;
    std::remove(path.c_str());
  }
}

TEST(BatchTraceSource, ViewDrainMatchesScalarDrainExactly) {
  const Trace t = generate("parser", 5000);
  const std::string path = save_flavor(t, "views", "v3");

  BatchTraceSource scalar(std::make_shared<SharedBatchCache>(path));
  BatchTraceSource views(std::make_shared<SharedBatchCache>(path));
  std::vector<TraceRecord> scalar_recs;
  while (scalar.peek() != nullptr) scalar_recs.push_back(scalar.next());

  std::size_t i = 0;
  for (;;) {
    const BatchView v = views.fetch_view();
    if (v.count == 0) {
      ASSERT_EQ(views.peek(), nullptr);
      break;
    }
    for (std::size_t k = 0; k < v.count; ++k) {
      TraceRecord r;
      v.batch->get(v.first + k, r);
      ASSERT_LT(i, scalar_recs.size());
      ASSERT_TRUE(records_equal(r, scalar_recs[i++]));
    }
    views.consume_view(v.count);
  }
  EXPECT_EQ(i, scalar_recs.size());
  EXPECT_EQ(views.records_consumed(), scalar.records_consumed());
  EXPECT_EQ(views.bits_consumed(), scalar.bits_consumed());
  std::remove(path.c_str());
}

TEST(BatchTraceSource, SkipAndRewindMatchFileSourceAccounting) {
  const Trace t = generate("vpr", 8000);
  const std::string path = save_flavor(t, "skip", "v3", /*chunk_records=*/256);

  // Skip far enough to hop whole chunks, then drain: identical records
  // and identical (frame-granular) bit accounting to the file source.
  FileTraceSource want(path);
  BatchTraceSource got(std::make_shared<SharedBatchCache>(path));
  const std::uint64_t wskip = want.skip(3000);
  const std::uint64_t gskip = got.skip(3000);
  EXPECT_EQ(gskip, wskip);
  EXPECT_EQ(got.records_consumed(), want.records_consumed());
  EXPECT_EQ(got.bits_consumed(), want.bits_consumed());
  EXPECT_GT(got.chunks_skipped(), 0u);

  while (want.peek() != nullptr) {
    ASSERT_NE(got.peek(), nullptr);
    ASSERT_TRUE(records_equal(got.next(), want.next()));
  }
  EXPECT_EQ(got.peek(), nullptr);
  EXPECT_EQ(got.bits_consumed(), want.bits_consumed());

  // Rewind restarts from record zero with zeroed counters.
  got.rewind();
  EXPECT_EQ(got.records_consumed(), 0u);
  EXPECT_EQ(got.bits_consumed(), 0u);
  ASSERT_NE(got.peek(), nullptr);
  EXPECT_TRUE(records_equal(*got.peek(), t.records.front()));
  std::remove(path.c_str());
}

TEST(BatchTraceSource, SkipPastEndAndEmptyViewContract) {
  const Trace t = generate("gzip", 1000);
  const std::string path = save_flavor(t, "skipend", "v2");
  BatchTraceSource src(std::make_shared<SharedBatchCache>(path));
  EXPECT_EQ(src.skip(~std::uint64_t{0}), t.records.size());
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_EQ(src.fetch_view().count, 0u);
  src.consume_view(0);  // zero-record consume is always legal
  EXPECT_THROW(src.consume_view(1), std::logic_error);
  std::remove(path.c_str());
}

TEST(SharedBatchCache, V1ContainerRejected) {
  Trace t = generate("gzip", 200);
  const std::string path = temp_path("cache_v1.rsim");
  testutil::write_v1(path, t, t.records.size());
  EXPECT_THROW(SharedBatchCache{path}, std::invalid_argument);
  std::remove(path.c_str());
}

// ---- one region over shared batches ----------------------------------------

TEST(SegmentOverBatches, SkipWarmupRegionMatchesFileSource) {
  const Trace t = generate("parser", 9000);
  const std::string path = save_flavor(t, "window", "v4", /*chunk_records=*/256);

  const auto run_window = [&](TraceSource& inner) {
    SegmentedTraceSource w(inner);
    (void)w.skip_gap(2500);
    w.open_segment(/*warmup=*/500 + /*simulate=*/3000);
    const auto cfg = core::CoreConfig::paper_4wide_perfect();
    return core::ReSimEngine(cfg, w).run();
  };
  FileTraceSource fsrc(path);
  const auto want = run_window(fsrc);
  BatchTraceSource bsrc(std::make_shared<SharedBatchCache>(path));
  const auto got = run_window(bsrc);

  EXPECT_EQ(got.committed, want.committed);
  EXPECT_EQ(got.major_cycles, want.major_cycles);
  EXPECT_EQ(got.trace_records, want.trace_records);
  EXPECT_EQ(got.trace_bits, want.trace_bits);
  std::remove(path.c_str());
}

// ---- engine identity ------------------------------------------------------

TEST(BatchTraceSource, EngineResultsMatchVectorSourceAcrossVersions) {
  const Trace t = generate("gzip", 8000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  VectorTraceSource vsrc(t);
  const auto want = core::ReSimEngine(cfg, vsrc).run();
  for (const std::string flavor : {"v2", "v3", "v4"}) {
    const std::string path = save_flavor(t, "engine", flavor);
    BatchTraceSource src(std::make_shared<SharedBatchCache>(path));
    const auto got = core::ReSimEngine(cfg, src).run();
    EXPECT_EQ(got.committed, want.committed) << flavor;
    EXPECT_EQ(got.major_cycles, want.major_cycles) << flavor;
    EXPECT_EQ(got.trace_records, want.trace_records) << flavor;
    EXPECT_EQ(got.trace_bits, want.trace_bits) << flavor;
    std::remove(path.c_str());
  }
}

// ---- multi-consumer fan-out ----------------------------------------------

TEST(SharedBatchCache, ConcurrentConsumersSeeIdenticalStreamsDecodeOnce) {
  const Trace t = generate("vpr", 12000);
  const std::string path = save_flavor(t, "fanout", "v3", /*chunk_records=*/256);
  constexpr std::size_t kConsumers = 4;
  const auto cache =
      std::make_shared<SharedBatchCache>(path, /*expected_consumers=*/kConsumers);
  ASSERT_GT(cache->chunk_count(), 2u);

  // Reference digest from a private file source.
  std::uint64_t want_digest = 0;
  std::uint64_t want_records = 0;
  {
    FileTraceSource ref(path);
    while (ref.peek() != nullptr) {
      const TraceRecord r = ref.next();
      want_digest = want_digest * 1099511628211ULL + r.pc * 3 + r.addr * 5 +
                    static_cast<std::uint64_t>(r.fmt);
      ++want_records;
    }
  }

  // Register every consumer BEFORE any of them drains: decode-once is
  // guaranteed for consumers present from the start (eviction needs all
  // registered consumers past a chunk). Late joiners may legitimately
  // re-decode via the capacity-pressure valve — that case is covered by
  // TinyCapacityStillCorrectUnderEvictionPressure.
  std::vector<std::unique_ptr<BatchTraceSource>> sources;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    sources.push_back(std::make_unique<BatchTraceSource>(cache));
  }

  std::vector<std::uint64_t> digests(kConsumers, 0);
  std::vector<std::uint64_t> counts(kConsumers, 0);
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    pool.emplace_back([&, c] {
      try {
        BatchTraceSource& src = *sources[c];
        while (src.peek() != nullptr) {
          const TraceRecord r = src.next();
          digests[c] = digests[c] * 1099511628211ULL + r.pc * 3 + r.addr * 5 +
                       static_cast<std::uint64_t>(r.fmt);
          ++counts[c];
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (auto& th : pool) th.join();
  sources.clear();
  ASSERT_FALSE(failed.load());
  for (std::size_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(digests[c], want_digest) << "consumer " << c;
    EXPECT_EQ(counts[c], want_records) << "consumer " << c;
  }
  // Decode-once: all consumers registered up front and the default
  // capacity covers the backpressure window, so every chunk was decoded
  // exactly once and every other read was a cache hit.
  EXPECT_EQ(cache->chunks_decoded(), cache->chunk_count());
  EXPECT_EQ(cache->hits(), (kConsumers - 1) * cache->chunk_count());
  std::remove(path.c_str());
}

TEST(SharedBatchCache, TinyCapacityStillCorrectUnderEvictionPressure) {
  // With a 2-batch cache the consumers serialize behind backpressure
  // and chunks get evicted and re-decoded; correctness (identical
  // streams) must survive even though decode-once does not.
  const Trace t = generate("gzip", 6000);
  const std::string path = save_flavor(t, "pressure", "v3", /*chunk_records=*/128);
  constexpr std::size_t kConsumers = 3;
  const auto cache = std::make_shared<SharedBatchCache>(path, kConsumers,
                                                        /*capacity=*/2);
  std::vector<std::uint64_t> counts(kConsumers, 0);
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    pool.emplace_back([&, c] {
      try {
        BatchTraceSource src(cache);
        while (src.peek() != nullptr) {
          (void)src.next();
          ++counts[c];
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (auto& th : pool) th.join();
  ASSERT_FALSE(failed.load());
  for (std::size_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(counts[c], t.records.size()) << "consumer " << c;
  }
  EXPECT_GE(cache->chunks_decoded(), cache->chunk_count());
  EXPECT_GT(cache->evictions(), 0u);
  std::remove(path.c_str());
}

// ---- batch-runner grouping ------------------------------------------------

/// A same-workload grid: N configurations over one workload.
std::vector<driver::SimJob> same_workload_grid(core::TraceBackend backend,
                                               bool shared_decode) {
  std::vector<driver::SimJob> jobs;
  for (unsigned width : {2u, 4u}) {
    for (unsigned rob : {16u, 32u}) {
      auto job = driver::SimJob::sweep_point(
          "gzip/w" + std::to_string(width) + "r" + std::to_string(rob), "gzip",
          core::CoreConfig::paper_4wide_perfect(), 4000);
      job.config.width = width;
      job.config.mem_read_ports = std::max(1u, width - 1);
      job.config.rob_size = rob;
      job.config.trace_backend = backend;
      job.config.trace_shared_decode = shared_decode;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(BatchRunnerSharedDecode, CsvByteIdenticalAcrossThreadsBackendsAndSharing) {
  // The tentpole's outer contract: sweep CSV bytes never depend on -j,
  // on the trace backend, or on whether the shared producer engaged.
  std::string reference;
  for (const auto backend : {core::TraceBackend::kMemory, core::TraceBackend::kStream,
                             core::TraceBackend::kMmap}) {
    for (const bool shared : {true, false}) {
      for (const unsigned threads : {1u, 4u}) {
        const driver::BatchRunner runner(threads);
        const auto results = runner.run(same_workload_grid(backend, shared));
        std::ostringstream csv;
        driver::write_csv(csv, results);
        if (reference.empty()) {
          reference = csv.str();
          ASSERT_FALSE(reference.empty());
        } else {
          EXPECT_EQ(csv.str(), reference)
              << "backend=" << static_cast<int>(backend) << " shared=" << shared
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(BatchRunnerSharedDecode, DecodeStatsReportDecodeOnceForFileBackends) {
  const driver::BatchRunner runner(4);
  std::vector<driver::GroupDecodeStats> stats;
  const auto results =
      runner.run(same_workload_grid(core::TraceBackend::kStream, true), &stats);
  EXPECT_EQ(results.size(), 4u);
  ASSERT_EQ(stats.size(), 1u) << "one same-workload group expected";
  EXPECT_EQ(stats[0].members, 4u);
  EXPECT_GT(stats[0].chunks_in_trace, 0u);
  EXPECT_EQ(stats[0].chunks_decoded, stats[0].chunks_in_trace)
      << "decode-once violated: " << stats[0].chunks_decoded << " decodes for "
      << stats[0].chunks_in_trace << " chunks";
}

TEST(BatchRunnerSharedDecode, SharedDecodeOffFormsNoGroups) {
  const driver::BatchRunner runner(2);
  std::vector<driver::GroupDecodeStats> stats;
  (void)runner.run(same_workload_grid(core::TraceBackend::kStream, false), &stats);
  EXPECT_TRUE(stats.empty());
}

TEST(BatchRunnerSharedDecode, PrefilterRoundTripKeepsResultsIdentical) {
  // trace.prefilter switches the group's temp container to v4: the CSV
  // must not move by a byte.
  const driver::BatchRunner runner(2);
  auto plain = same_workload_grid(core::TraceBackend::kStream, true);
  auto filtered = same_workload_grid(core::TraceBackend::kStream, true);
  for (auto& job : filtered) job.config.trace_prefilter = true;
  std::ostringstream a, b;
  driver::write_csv(a, runner.run(plain));
  driver::write_csv(b, runner.run(filtered));
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace resim::trace
