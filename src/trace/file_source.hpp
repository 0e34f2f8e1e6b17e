// FileTraceSource: the one sequential reader of .rsim files.
//
// Decodes one container chunk at a time into a reusable record buffer,
// so peak decoded memory is O(chunk_records), not O(trace) — the
// property that lets billion-record traces and parallel sweep workers
// (each owning a cheap private source) run in flat host memory, the way
// production trace-driven simulators stream their input.
//
// The bytes reach the chunk decoder (container.hpp) in one of two ways,
// the file backends of trace.backend (docs/CONFIG.md):
//
//   ByteMode::kRead    buffered read() calls into one reused chunk
//                      buffer (`stream`): O(chunk) RSS;
//   ByteMode::kMapped  a read-only mapping of the whole file (`mmap`):
//                      raw chunks decode in place with no copy, and the
//                      page cache is shared by every worker mapping the
//                      same file.
//
// Both modes run the same header/chunk validation and the same decoder,
// so they reject a corrupt file with identical errors and hand out
// identical records and counters.
//
// Legacy v1 files have a single monolithic payload; those keep the
// *encoded* payload resident (read into memory, or mapped) but still
// decode records in bounded batches, so the expensive decoded form stays
// O(batch) for every version.
#ifndef RESIM_TRACE_FILE_SOURCE_H
#define RESIM_TRACE_FILE_SOURCE_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/container.hpp"
#include "trace/reader.hpp"

namespace resim::trace {

/// How a container's bytes reach the chunk decoder.
enum class ByteMode : std::uint8_t {
  kRead,    ///< buffered read() calls (trace.backend = stream)
  kMapped,  ///< a read-only mapping (trace.backend = mmap)
};

/// An open .rsim file: its validated header and its bytes by either
/// mode. Shared by FileTraceSource and the SharedBatchCache producer.
/// Not thread-safe: one reader at a time.
class ContainerFile {
 public:
  /// Opens `path` and reads and validates the container header. Open,
  /// stat and mapping failures throw std::runtime_error prefixed with
  /// `who`; a corrupt header throws the container's error.
  ContainerFile(std::string path, ByteMode mode, const char* who);

  ContainerFile(const ContainerFile&) = delete;
  ContainerFile& operator=(const ContainerFile&) = delete;

  [[nodiscard]] const ContainerHeader& header() const { return hdr_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// The `n` bytes at file offset `off`, fewer only at end of file: a
  /// view into the mapping, or read() into `into` (the returned span
  /// aliases it). Read mode seeks only when `off` is not where the
  /// previous read ended.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::uint64_t off, std::uint64_t n,
                                                    std::vector<std::uint8_t>& into);

  /// Reads and validates the chunk header at `off`; the container still
  /// owes `records_remaining` records.
  [[nodiscard]] ChunkHeader chunk_header(std::uint64_t off, std::uint64_t records_remaining);

 private:
  /// munmap()s the mapping, also when the constructor throws.
  struct Unmap {
    std::uint64_t size;
    void operator()(const std::uint8_t* map) const;
  };

  std::string path_;
  std::uint64_t size_ = 0;
  std::ifstream is_;                                 ///< read mode
  std::uint64_t pos_ = 0;                            ///< read mode: stream offset
  std::unique_ptr<const std::uint8_t, Unmap> map_;   ///< mapped mode: the whole file
  bool mapped_ = false;
  ContainerHeader hdr_;
  std::vector<std::uint8_t> hdr_buf_;  ///< read mode: chunk header bytes
};

class FileTraceSource : public TraceSource {
 public:
  /// Opens and validates the container header; throws std::runtime_error
  /// on a missing or corrupt file (or, mapped, on platforms without mmap).
  explicit FileTraceSource(std::string path, ByteMode mode = ByteMode::kRead);

  [[nodiscard]] const TraceRecord* peek() override;
  TraceRecord next() override;
  [[nodiscard]] std::uint64_t bits_consumed() const override { return bits_; }
  [[nodiscard]] std::uint64_t records_consumed() const override { return consumed_; }

  /// Chunk-skipping seek (container v2+): whole chunks inside the skip
  /// region are never read, expanded or decoded — their headers are
  /// validated and the reader hops past the stored payload (one seek per
  /// chunk in read mode), so fast-forwarding over a long prefix costs
  /// O(chunks) header reads, not O(records) decodes, and
  /// max_buffered_records() never grows for the skipped region.
  /// bits_consumed() counts a seeked chunk as raw_bytes * 8 (its
  /// byte-aligned bit-packed size), so compressed and raw containers
  /// agree. Legacy v1 files fall back to decode-and-discard.
  std::uint64_t skip(std::uint64_t n) override;

  /// Restart from the first record, resetting the consumption counters
  /// (sweep workers re-run the same file against many configurations).
  void rewind();

  // --- container metadata (available without decoding any record) ---------
  [[nodiscard]] const std::string& trace_name() const { return file_.header().name; }
  [[nodiscard]] Addr start_pc() const { return file_.header().start_pc; }
  [[nodiscard]] std::uint64_t total_records() const override {
    return file_.header().record_count;
  }
  [[nodiscard]] std::uint32_t container_version() const { return file_.header().version; }

  /// High-water mark of decoded records resident at once; tests pin this
  /// to one chunk to prove the O(chunk) memory claim.
  [[nodiscard]] std::size_t max_buffered_records() const { return max_buffered_; }

  /// Chunks seeked past (never decoded) by skip(); tests prove the
  /// chunk-skipping fast path actually engaged.
  [[nodiscard]] std::uint64_t chunks_skipped() const { return chunks_skipped_; }

  /// Chunks (v1: bounded decode batches) this source bit-unpacked
  /// itself. The decode-once CI assertion sums this across sweep
  /// workers to prove the shared batch cache kept private decodes at
  /// zero (docs/CI.md).
  [[nodiscard]] std::uint64_t chunks_decoded() const { return chunks_decoded_; }

 private:
  void refill();
  /// After the last chunk the file must end (trailing-garbage check).
  void check_end() const;

  const char* who_;  ///< "FileTraceSource" / "MmapTraceSource" in errors
  ContainerFile file_;
  ChunkDecoder dec_;
  std::vector<std::uint8_t> encoded_;       ///< read mode: chunk as stored / v1 payload
  std::span<const std::uint8_t> v1_payload_;  ///< v1: the resident payload

  std::uint64_t offset_ = 0;       ///< file offset of the next chunk header
  std::uint64_t next_record_ = 0;  ///< records decoded or seeked past so far
  std::uint64_t chunks_read_ = 0;  ///< chunks consumed (decoded or seeked)
  std::uint64_t chunks_skipped_ = 0;

  std::vector<TraceRecord> buf_;  ///< decoded records of the current chunk
  std::size_t buf_pos_ = 0;
  std::size_t max_buffered_ = 0;

  std::uint64_t consumed_ = 0;
  std::uint64_t bits_ = 0;
  std::uint64_t chunks_decoded_ = 0;
};

/// The mmap backend's reader: a FileTraceSource in mapped mode.
class MmapTraceSource final : public FileTraceSource {
 public:
  explicit MmapTraceSource(std::string path)
      : FileTraceSource(std::move(path), ByteMode::kMapped) {}
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_FILE_SOURCE_H
