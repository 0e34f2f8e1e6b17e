#include "trace/container.hpp"

#include <array>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "common/lz.hpp"
#include "trace/format.hpp"

namespace resim::trace {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("load_trace: " + what + " in " + path);
}

/// Bounds-checked little-endian reads over bytes that start at file
/// offset `base`; a read past the end throws "truncated field <field>".
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> bytes, std::uint64_t base)
      : bytes_(bytes), base_(base) {}

  void read(void* dst, std::size_t n, const char* field) {
    if (n > bytes_.size() - at_) {
      throw std::runtime_error(std::string("load_trace: truncated field ") + field);
    }
    if (n != 0) std::memcpy(dst, bytes_.data() + at_, n);
    at_ += n;
  }

  std::uint32_t u32(const char* field) { return static_cast<std::uint32_t>(le(4, field)); }
  std::uint64_t u64(const char* field) { return le(8, field); }

  /// File offset of the next unread byte.
  [[nodiscard]] std::uint64_t pos() const { return base_ + at_; }

 private:
  std::uint64_t le(unsigned n, const char* field) {
    std::array<unsigned char, 8> b{};
    read(b.data(), n, field);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::uint64_t base_;
  std::size_t at_ = 0;
};

/// The bit-packed bytes of a chunk: `stored` itself for a raw chunk, or
/// `stored` LZ-expanded into `scratch` (resized to ch.raw_bytes). LZ
/// corruption is converted to the container's std::runtime_error
/// contract naming chunk `chunk_index`.
std::span<const std::uint8_t> chunk_raw_payload(std::span<const std::uint8_t> stored,
                                                const ChunkHeader& ch,
                                                std::uint64_t chunk_index,
                                                std::vector<std::uint8_t>& scratch,
                                                const std::string& path) {
  if (!ch.compressed()) return stored;
  scratch.resize(ch.raw_bytes);
  try {
    lz::decompress(stored, scratch);
  } catch (const std::runtime_error& e) {
    fail(path, "corrupt compressed payload in chunk " + std::to_string(chunk_index) +
                   " (" + e.what() + ")");
  }
  return scratch;
}

}  // namespace

void write_u32le(std::ostream& os, std::uint32_t v) {
  std::array<char, 4> b;
  for (unsigned i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b.data(), b.size());
}

void write_u64le(std::ostream& os, std::uint64_t v) {
  std::array<char, 8> b;
  for (unsigned i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b.data(), b.size());
}

void decode_records(BitReader& br, std::uint64_t count, std::uint64_t first_index,
                    std::vector<TraceRecord>& out, const std::string& prefix,
                    const std::string& suffix) {
  const std::size_t start = out.size();
  try {
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(decode(br));
  } catch (const std::out_of_range&) {
    throw std::runtime_error(prefix + ": truncated payload at record " +
                             std::to_string(first_index + (out.size() - start)) +
                             suffix);
  }
}

void ChunkDecoder::open(std::span<const std::uint8_t> stored, const ChunkHeader& ch,
                        std::uint64_t chunk_index, std::uint64_t first_record) {
  br_ = BitReader(chunk_raw_payload(stored, ch, chunk_index, scratch_, path_));
  delta_ = DeltaCodec{};  // the v4 filter state is chunk-local
  delta_on_ = ch.delta_filtered();
  left_ = ch.record_count;
  next_record_ = first_record;
  chunk_index_ = chunk_index;
}

void ChunkDecoder::open_v1(std::span<const std::uint8_t> payload, std::uint64_t records) {
  br_ = BitReader(payload);
  delta_on_ = false;
  left_ = records;
  next_record_ = 0;
  chunk_index_ = kWholePayload;
}

void ChunkDecoder::decode(std::uint64_t n, std::vector<TraceRecord>& out) {
  out.clear();
  out.reserve(n);  // no-op once the buffer has held a chunk: capacity is reused
  decode_records(br_, n, next_record_, out, "load_trace", suffix_);
  next_record_ += n;
  left_ -= n;
  if (left_ == 0 && br_.bits_remaining() >= 8) {
    // Only byte-alignment padding may follow the last record; a whole
    // spare byte means the framing lies about the record count.
    throw std::runtime_error(
        chunk_index_ == kWholePayload
            ? "load_trace: trailing garbage after record " + std::to_string(next_record_) +
                  suffix_
            : "load_trace: trailing garbage in chunk " + std::to_string(chunk_index_) +
                  " of " + path_);
  }
  if (delta_on_) {
    DeltaCodec delta = delta_;  // a local the loop can keep in registers
    for (auto& r : out) delta.unfilter(r);
    delta_ = delta;
  }
}

std::uint64_t min_payload_bytes(std::uint64_t records) {
  return (records * kOtherBits + 7) / 8;
}

std::uint64_t max_payload_bytes(std::uint64_t records) {
  return (records * kBranchBits + 7) / 8;
}

ContainerHeader read_container_header(std::span<const std::uint8_t> head,
                                      std::uint64_t file_size, const std::string& path) {
  Cursor src(head, 0);
  char magic[4];
  src.read(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kContainerMagic, sizeof magic) != 0) {
    fail(path, "bad magic");
  }

  ContainerHeader h;
  h.version = src.u32("version");
  if (h.version != kContainerV1 && h.version != kContainerV2 &&
      h.version != kContainerV3 && h.version != kContainerV4) {
    fail(path, "unsupported version " + std::to_string(h.version));
  }

  const std::uint32_t name_len = src.u32("name_len");
  if (name_len > kMaxNameLen || name_len > file_size) {
    fail(path, "name_len " + std::to_string(name_len) + " out of range");
  }
  h.name.resize(name_len);
  src.read(h.name.data(), name_len, "name");

  h.start_pc = src.u64("start_pc");
  h.record_count = src.u64("count");

  if (h.version == kContainerV1) {
    h.payload_len = src.u64("payload_len");
    h.payload_start = src.pos();
    if (h.payload_len > file_size - h.payload_start) {
      fail(path, "payload_len " + std::to_string(h.payload_len) +
                     " exceeds file size " + std::to_string(file_size));
    }
    if (h.payload_len != file_size - h.payload_start) {
      fail(path, "trailing garbage after payload");
    }
    // Bound count by the (file-size-checked) payload before any
    // arithmetic or allocation sized from it can overflow.
    if (h.record_count > h.payload_len * 8 / kOtherBits) {
      fail(path, "count " + std::to_string(h.record_count) +
                     " inconsistent with payload_len " + std::to_string(h.payload_len));
    }
    if (h.payload_len < min_payload_bytes(h.record_count) ||
        h.payload_len > max_payload_bytes(h.record_count)) {
      fail(path, "payload_len " + std::to_string(h.payload_len) +
                     " inconsistent with count " + std::to_string(h.record_count));
    }
    return h;
  }

  h.chunk_records = src.u32("chunk_records");
  h.chunk_count = src.u32("chunk_count");
  h.payload_start = src.pos();
  if (h.chunk_records == 0 || h.chunk_records > kMaxChunkRecords) {
    fail(path, "chunk_records " + std::to_string(h.chunk_records) + " out of range");
  }
  const std::uint64_t expect_chunks =
      (h.record_count + h.chunk_records - 1) / h.chunk_records;
  if (h.chunk_count != expect_chunks) {
    fail(path, "chunk_count " + std::to_string(h.chunk_count) +
                   " inconsistent with count " + std::to_string(h.record_count));
  }
  // Cheap whole-file lower bound before any chunk is read. v2 chunks
  // carry at least min_payload_bytes of records; v3 chunks may be
  // LZ-compressed, whose floor is one payload byte per non-empty chunk.
  const std::uint64_t hdr_bytes = chunk_header_bytes(h.version);
  const std::uint64_t body = file_size - h.payload_start;
  const std::uint64_t min_body =
      h.chunk_count * hdr_bytes + (h.version == kContainerV2
                                       ? min_payload_bytes(h.record_count)
                                       : std::uint64_t{h.chunk_count});
  if (body < min_body) {
    fail(path, "count " + std::to_string(h.record_count) + " exceeds file size " +
                   std::to_string(file_size));
  }
  return h;
}

ChunkHeader read_chunk_header(std::span<const std::uint8_t> bytes, std::uint64_t offset,
                              const ContainerHeader& hdr, std::uint64_t records_remaining,
                              std::uint64_t file_size, const std::string& path) {
  Cursor src(bytes, offset);
  ChunkHeader c;
  c.record_count = src.u32("chunk record_count");
  const std::uint64_t expected =
      records_remaining < hdr.chunk_records ? records_remaining : hdr.chunk_records;
  if (c.record_count != expected) {
    fail(path, "chunk record_count " + std::to_string(c.record_count) +
                   " (expected " + std::to_string(expected) + ")");
  }

  if (hdr.version >= kContainerV3) {
    c.flags = src.u32("chunk flags");
    c.raw_bytes = src.u32("chunk raw_bytes");
    c.payload_bytes = src.u32("chunk compressed_bytes");
    // The legal flag set is per-version: the delta bit a v4 writer may
    // set is corruption inside a v3 container.
    const std::uint32_t known = hdr.version >= kContainerV4
                                    ? kChunkFlagCompressed | kChunkFlagDelta
                                    : kChunkFlagCompressed;
    if ((c.flags & ~known) != 0) {
      fail(path, "chunk flags " + std::to_string(c.flags) + " has unknown bits");
    }
    if (c.delta_filtered() && !c.compressed()) {
      // The writer only delta-filters to feed the LZ matcher; a delta
      // bit on a stored-raw chunk is something no writer emits.
      fail(path, "chunk flags " + std::to_string(c.flags) +
                     " has the delta bit without the compressed bit");
    }
    if (c.raw_bytes < min_payload_bytes(c.record_count) ||
        c.raw_bytes > max_payload_bytes(c.record_count)) {
      fail(path, "chunk raw_bytes " + std::to_string(c.raw_bytes) +
                     " inconsistent with its record_count " +
                     std::to_string(c.record_count));
    }
    if (c.compressed()) {
      // The writer stores compressed bytes only when strictly smaller;
      // an equal-or-larger value is corruption (oversized), zero is a
      // payload that cannot exist (truncated at write time).
      if (c.payload_bytes == 0 || c.payload_bytes >= c.raw_bytes) {
        fail(path, "chunk compressed_bytes " + std::to_string(c.payload_bytes) +
                       " inconsistent with raw_bytes " + std::to_string(c.raw_bytes));
      }
    } else if (c.payload_bytes != c.raw_bytes) {
      fail(path, "chunk compressed_bytes " + std::to_string(c.payload_bytes) +
                     " != raw_bytes " + std::to_string(c.raw_bytes) +
                     " on an uncompressed chunk");
    }
  } else {
    c.payload_bytes = src.u32("chunk payload_bytes");
    c.raw_bytes = c.payload_bytes;
    if (c.payload_bytes < min_payload_bytes(c.record_count) ||
        c.payload_bytes > max_payload_bytes(c.record_count)) {
      fail(path, "chunk payload_bytes " + std::to_string(c.payload_bytes) +
                     " inconsistent with its record_count " +
                     std::to_string(c.record_count));
    }
  }

  const char* size_field =
      hdr.version >= kContainerV3 ? "chunk compressed_bytes " : "chunk payload_bytes ";
  if (c.payload_bytes > file_size - src.pos()) {
    fail(path, size_field + std::to_string(c.payload_bytes) + " exceeds file size " +
                   std::to_string(file_size));
  }
  return c;
}

}  // namespace resim::trace
