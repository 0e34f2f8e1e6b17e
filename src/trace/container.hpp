// .rsim container layout: explicit little-endian framing around the
// bit-packed record payload of trace/format.hpp.
//
// Version 1 (legacy, read-only):
//   magic "RSIM" | u32 version=1 | u32 name_len | name bytes
//   | u64 start_pc | u64 record_count | u64 payload_len | payload
// The whole record stream is one byte-aligned payload; the fields were
// historically written in host byte order, which on the little-endian
// hosts every trace was produced on matches this spec exactly.
//
// Version 2 (default output of save_trace):
//   magic "RSIM" | u32 version=2 | u32 name_len | name bytes
//   | u64 start_pc | u64 record_count | u32 chunk_records | u32 chunk_count
//   then chunk_count times:
//     u32 record_count | u32 payload_bytes | payload
// Every chunk holds exactly chunk_records records except the last, and
// every chunk payload is independently byte-aligned, so a reader can
// skip a chunk by seeking payload_bytes without decoding it — the basis
// of the constant-memory FileTraceSource.
//
// Version 3 (written by save_trace with compression requested): same
// header as v2 but version=3, and each chunk header grows to
//     u32 record_count | u32 flags | u32 raw_bytes | u32 compressed_bytes
//     | payload[compressed_bytes]
// flags bit 0 set means the payload is the chunk's bit-packed record
// bytes compressed with the in-tree LZ codec (common/lz.hpp) and
// raw_bytes is the decompressed size; flags 0 means the payload is
// stored raw and compressed_bytes == raw_bytes. Compression is decided
// per chunk (incompressible chunks stay raw), and chunk-skipping seek
// still works unread: the stored size is always compressed_bytes.
// All integers little-endian.
//
// Version 4 (written by save_trace with the delta pre-filter requested):
// identical framing to v3, plus flags bit 1 (kChunkFlagDelta) meaning
// the chunk's records were delta-filtered (DeltaCodec below) before
// bit-packing: B-record PCs are stored relative to the previous branch
// PC, targets relative to their own PC, and M-record addresses relative
// to the previous address, all mod 2^32, with the filter state reset at
// every chunk boundary so chunk-skipping seek still works unread. Field
// widths are unchanged, so raw_bytes is identical to the unfiltered
// encoding. The delta bit is only legal on version-4 chunks that are
// also compressed — the filter exists to feed the LZ matcher, and a
// delta-only chunk is something the writer never emits. The writer
// keeps the per-chunk best of {raw, LZ, delta+LZ}.
//
// Full bit-exact specification: docs/TRACE_FORMAT.md.
#ifndef RESIM_TRACE_CONTAINER_H
#define RESIM_TRACE_CONTAINER_H

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitstream.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace resim::trace {

inline constexpr char kContainerMagic[4] = {'R', 'S', 'I', 'M'};
inline constexpr std::uint32_t kContainerV1 = 1;
inline constexpr std::uint32_t kContainerV2 = 2;
inline constexpr std::uint32_t kContainerV3 = 3;
inline constexpr std::uint32_t kContainerV4 = 4;

/// v3+ chunk flags. Bits a version does not define are rejected as
/// corruption — a v3 chunk carrying the delta bit is corrupt even though
/// a v4 chunk may carry it.
inline constexpr std::uint32_t kChunkFlagCompressed = 1u << 0;
inline constexpr std::uint32_t kChunkFlagDelta = 1u << 1;  ///< v4 only

/// Records per full chunk written by save_trace. 4096 records is at most
/// ~42 KiB of encoded payload (all-branch worst case), so a streaming
/// reader's working set stays well under one L2 cache.
inline constexpr std::uint32_t kDefaultChunkRecords = 4096;

/// Upper bounds accepted from the wire; anything larger is corruption,
/// not a plausible trace.
inline constexpr std::uint32_t kMaxNameLen = 4096;
inline constexpr std::uint32_t kMaxChunkRecords = 1u << 20;

/// Everything before the first payload byte (v1) / first chunk header (v2+).
struct ContainerHeader {
  std::uint32_t version = kContainerV2;
  std::string name;
  Addr start_pc = 0;
  std::uint64_t record_count = 0;
  std::uint64_t payload_len = 0;       ///< v1 only: bytes of the single payload
  std::uint32_t chunk_records = 0;     ///< v2+: records per full chunk
  std::uint32_t chunk_count = 0;       ///< v2+
  std::uint64_t payload_start = 0;     ///< file offset just past this header
};

/// Per-chunk framing, normalized across versions: a v2 chunk reads as
/// flags == 0 with raw_bytes == payload_bytes, so consumers only ever
/// branch on kChunkFlagCompressed.
struct ChunkHeader {
  std::uint32_t record_count = 0;
  std::uint32_t flags = 0;          ///< v3 only on the wire; 0 for v2
  std::uint32_t raw_bytes = 0;      ///< decoded (bit-packed) payload bytes
  std::uint32_t payload_bytes = 0;  ///< bytes stored in the file
  [[nodiscard]] bool compressed() const { return (flags & kChunkFlagCompressed) != 0; }
  [[nodiscard]] bool delta_filtered() const { return (flags & kChunkFlagDelta) != 0; }
};

/// The v4 delta pre-filter (kChunkFlagDelta): a stateful, exactly
/// invertible transform over the address-bearing record fields that
/// turns the strided PC/address streams into small repeating deltas the
/// LZ matcher can fold. Field widths are unchanged (all arithmetic is
/// mod 2^32, the wire width), so a filtered chunk's raw_bytes equals the
/// unfiltered encoding's. State resets at every chunk boundary, keeping
/// chunks independently decodable for the chunk-skipping seek.
struct DeltaCodec {
  std::uint64_t prev_pc = 0;    ///< last real branch PC seen (32-bit value)
  std::uint64_t prev_addr = 0;  ///< last real memory address seen

  static constexpr std::uint64_t kMask = 0xFFFF'FFFFULL;  ///< wire width

  /// Real record -> filtered record (writer side).
  void filter(TraceRecord& r) {
    if (r.fmt == RecFormat::kBranch) {
      const std::uint64_t pc = r.pc & kMask;
      r.target = (r.target - r.pc) & kMask;
      r.pc = (r.pc - prev_pc) & kMask;
      prev_pc = pc;
    } else if (r.fmt == RecFormat::kMem) {
      const std::uint64_t addr = r.addr & kMask;
      r.addr = (r.addr - prev_addr) & kMask;
      prev_addr = addr;
    }
  }

  /// Filtered record -> real record (reader side, exact inverse).
  void unfilter(TraceRecord& r) {
    if (r.fmt == RecFormat::kBranch) {
      r.pc = (r.pc + prev_pc) & kMask;
      r.target = (r.target + r.pc) & kMask;
      prev_pc = r.pc;
    } else if (r.fmt == RecFormat::kMem) {
      r.addr = (r.addr + prev_addr) & kMask;
      prev_addr = r.addr;
    }
  }
};

/// On-disk size of a chunk header for container version `version`.
[[nodiscard]] constexpr std::uint64_t chunk_header_bytes(std::uint32_t version) {
  return version >= kContainerV3 ? 16 : 8;
}

// --- little-endian primitives (byte-shift, no reinterpret_cast) ------------

void write_u32le(std::ostream& os, std::uint32_t v);
void write_u64le(std::ostream& os, std::uint64_t v);

// --- the one header parser, over bytes --------------------------------------
// Every reader hands these parsers the bytes it got, however it got them
// (a read() into a buffer, a view into a mapping). A field the bytes stop
// short of throws std::runtime_error "load_trace: truncated field <field>".

/// Bytes of the largest container header (v1/v2+ agree: u64 payload_len
/// vs u32 chunk_records + u32 chunk_count), i.e. how much of the file a
/// reader must offer read_container_header.
inline constexpr std::uint64_t kMaxHeaderBytes = 4 + 4 + 4 + kMaxNameLen + 8 + 8 + 8;

/// Reads and validates the magic, version and per-version header fields
/// from `head`, the first bytes of the file (at most kMaxHeaderBytes are
/// looked at). Every length/count is checked against `file_size` before
/// any allocation sized from it. Throws std::runtime_error naming the
/// offending field.
[[nodiscard]] ContainerHeader read_container_header(std::span<const std::uint8_t> head,
                                                    std::uint64_t file_size,
                                                    const std::string& path);

/// Reads and validates one v2+ chunk header from `bytes`, which start at
/// file offset `offset` (chunk_header_bytes(hdr.version) are looked at).
/// `records_remaining` is the count of records the container still owes;
/// the chunk must deliver min(records_remaining, hdr.chunk_records) of
/// them, its raw_bytes must fit the record count, and its stored payload
/// must fit the file. For v3+, flag bits the container version does not
/// define are rejected (the delta bit is v4-only, and only legal
/// together with the compressed bit), a compressed chunk's
/// compressed_bytes must be non-zero and smaller than raw_bytes, and a
/// raw chunk's compressed_bytes must equal raw_bytes.
[[nodiscard]] ChunkHeader read_chunk_header(std::span<const std::uint8_t> bytes,
                                            std::uint64_t offset, const ContainerHeader& hdr,
                                            std::uint64_t records_remaining,
                                            std::uint64_t file_size,
                                            const std::string& path);

/// Inclusive wire-size bounds for `records` byte-aligned records
/// (all-Other vs all-Branch); used to reject impossible payload lengths.
[[nodiscard]] std::uint64_t min_payload_bytes(std::uint64_t records);
[[nodiscard]] std::uint64_t max_payload_bytes(std::uint64_t records);

/// The one validating chunk decoder every container reader goes through:
/// LZ-expand (v3+ compressed chunks), bit-unpack, reject trailing bytes
/// after the last record, invert the v4 delta filter. open() takes a
/// chunk's bytes as stored plus its header; decode() then hands out its
/// records. A v2+ reader decodes a chunk in one decode() call; a v1
/// payload, one monolithic "chunk" without a chunk header, decodes in
/// bounded batches so its decoded form stays O(batch).
class ChunkDecoder {
 public:
  explicit ChunkDecoder(std::string path) : path_(std::move(path)), suffix_(" in " + path_) {}

  /// Starts on a chunk. A compressed payload expands into the decoder's
  /// reused scratch; a raw one is decoded where it lies (in place from a
  /// mapping), so `stored` must outlive the chunk's decode() calls. LZ
  /// corruption throws the container's std::runtime_error naming chunk
  /// `chunk_index`; `first_record` numbers records in truncation errors.
  void open(std::span<const std::uint8_t> stored, const ChunkHeader& ch,
            std::uint64_t chunk_index, std::uint64_t first_record);

  /// Starts on a v1 container's single payload of `records` records.
  void open_v1(std::span<const std::uint8_t> payload, std::uint64_t records);

  /// Replaces `out` with the chunk's next `n` records (n <= left()).
  /// Decoding the last one checks that at most alignment padding follows.
  void decode(std::uint64_t n, std::vector<TraceRecord>& out);

  /// Records of the open chunk not yet decoded.
  [[nodiscard]] std::uint64_t left() const { return left_; }

 private:
  std::string path_;
  std::string suffix_;                ///< " in <path>" for decode_records
  std::vector<std::uint8_t> scratch_; ///< LZ output (reused)
  BitReader br_{{}};                  ///< cursor into the open chunk
  DeltaCodec delta_;                  ///< v4 state, reset at every open()
  bool delta_on_ = false;
  std::uint64_t left_ = 0;
  std::uint64_t next_record_ = 0;
  std::uint64_t chunk_index_ = 0;

  /// chunk_index_ of a v1 payload, whose trailing-garbage error names
  /// the record count instead of a chunk.
  static constexpr std::uint64_t kWholePayload = ~std::uint64_t{0};
};

/// Appends `count` decoded records to `out`, converting the codec's
/// std::out_of_range (truncated bit stream) into the container level's
/// std::runtime_error contract: "<prefix>: truncated payload at record
/// <first_index + n><suffix>". Used by the chunk decoder and
/// Trace::decode_payload.
void decode_records(BitReader& br, std::uint64_t count, std::uint64_t first_index,
                    std::vector<TraceRecord>& out, const std::string& prefix,
                    const std::string& suffix);

}  // namespace resim::trace

#endif  // RESIM_TRACE_CONTAINER_H
