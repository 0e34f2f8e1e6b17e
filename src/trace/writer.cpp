#include "trace/writer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/lz.hpp"
#include "trace/container.hpp"
#include "trace/file_source.hpp"

namespace resim::trace {

std::vector<std::uint8_t> Trace::encode_payload() const {
  BitWriter w;
  for (const auto& r : records) encode(r, w);
  w.align_byte();
  return std::move(w).take();
}

void save_trace(const Trace& t, const std::string& path, std::uint32_t chunk_records,
                bool compress, bool prefilter) {
  if (chunk_records == 0 || chunk_records > kMaxChunkRecords) {
    throw std::invalid_argument("save_trace: chunk_records out of range");
  }
  if (prefilter && !compress) {
    // The delta filter exists to feed the LZ matcher; a filtered-raw
    // chunk is illegal on the wire (container.hpp), so refuse to build
    // a writer state that could only emit one.
    throw std::invalid_argument("save_trace: prefilter requires compression");
  }
  if (t.name.size() > kMaxNameLen) {
    // The reader enforces this bound; refusing here beats writing a file
    // load_trace will reject.
    throw std::invalid_argument("save_trace: trace name longer than " +
                                std::to_string(kMaxNameLen) + " bytes");
  }
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_trace: cannot open " + path);

  const std::uint64_t count = t.records.size();
  const std::uint64_t chunks = (count + chunk_records - 1) / chunk_records;
  if (chunks > 0xFFFF'FFFFULL) {
    throw std::invalid_argument(
        "save_trace: trace needs more than 2^32-1 chunks; raise chunk_records");
  }

  os.write(kContainerMagic, sizeof kContainerMagic);
  write_u32le(os, prefilter ? kContainerV4 : compress ? kContainerV3 : kContainerV2);
  write_u32le(os, static_cast<std::uint32_t>(t.name.size()));
  os.write(t.name.data(), static_cast<std::streamsize>(t.name.size()));
  write_u64le(os, t.start_pc);
  write_u64le(os, count);
  write_u32le(os, chunk_records);
  write_u32le(os, static_cast<std::uint32_t>(chunks));

  BitWriter w;
  BitWriter wd;  // delta-filtered encoding of the same chunk (v4 candidate)
  TraceRecord filtered;
  for (std::uint64_t first = 0; first < count; first += chunk_records) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk_records, count - first);
    w.clear();
    for (std::uint64_t i = 0; i < n; ++i) encode(t.records[first + i], w);
    w.align_byte();
    const auto& raw = w.bytes();
    write_u32le(os, static_cast<std::uint32_t>(n));
    if (compress) {
      // Per-chunk decision: store compressed only when strictly smaller,
      // so incompressible chunks never grow the file. With the v4
      // pre-filter, the delta+LZ encoding competes as a third candidate;
      // plain LZ wins ties so the delta bit only ever appears when it
      // strictly buys bytes.
      std::uint32_t flags = kChunkFlagCompressed;
      std::vector<std::uint8_t> packed = lz::compress(raw);
      if (prefilter) {
        wd.clear();
        DeltaCodec delta;  // state resets at every chunk boundary
        for (std::uint64_t i = 0; i < n; ++i) {
          filtered = t.records[first + i];
          delta.filter(filtered);
          encode(filtered, wd);
        }
        wd.align_byte();
        // The filter never changes a field width, so both encodings
        // must agree on raw_bytes — the header stores only one.
        if (wd.bytes().size() != raw.size()) {
          throw std::logic_error("save_trace: delta filter changed the chunk size");
        }
        std::vector<std::uint8_t> packed_delta = lz::compress(wd.bytes());
        if (packed_delta.size() < packed.size()) {
          packed = std::move(packed_delta);
          flags |= kChunkFlagDelta;
        }
      }
      const bool shrank = packed.size() < raw.size();
      const auto& payload = shrank ? packed : raw;
      write_u32le(os, shrank ? flags : 0u);
      write_u32le(os, static_cast<std::uint32_t>(raw.size()));
      write_u32le(os, static_cast<std::uint32_t>(payload.size()));
      os.write(reinterpret_cast<const char*>(payload.data()),
               static_cast<std::streamsize>(payload.size()));
    } else {
      write_u32le(os, static_cast<std::uint32_t>(raw.size()));
      os.write(reinterpret_cast<const char*>(raw.data()),
               static_cast<std::streamsize>(raw.size()));
    }
  }
  if (!os) throw std::runtime_error("save_trace: write failed for " + path);
}

Trace load_trace(const std::string& path) {
  // One reader implementation for both container versions: drain the
  // streaming source (which owns all header/chunk validation) into a
  // decoded vector.
  FileTraceSource src(path);
  Trace t;
  t.name = src.trace_name();
  t.start_pc = src.start_pc();
  t.records.reserve(src.total_records());
  while (src.peek() != nullptr) t.records.push_back(src.next());
  return t;
}

}  // namespace resim::trace
