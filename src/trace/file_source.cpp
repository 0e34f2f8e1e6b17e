#include "trace/file_source.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define RESIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace resim::trace {

// --- ContainerFile ---------------------------------------------------------

ContainerFile::ContainerFile(std::string path, ByteMode mode, const char* who)
    : path_(std::move(path)), mapped_(mode == ByteMode::kMapped) {
  const std::string prefix = std::string(who) + ": ";
  if (!mapped_) {
    is_.open(path_, std::ios::binary);
    if (!is_) throw std::runtime_error(prefix + "cannot open " + path_);
    is_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(is_.tellg());
    is_.seekg(0, std::ios::beg);
  } else {
#ifndef RESIM_HAVE_MMAP
    throw std::runtime_error(prefix + "no mmap on this platform (" + path_ +
                             "); use the stream backend");
#else
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error(prefix + "cannot open " + path_);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw std::runtime_error(prefix + "cannot stat " + path_);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ > 0) {
      void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (m == MAP_FAILED) {
        ::close(fd);
        throw std::runtime_error(prefix + "mmap failed for " + path_);
      }
      map_ = {static_cast<const std::uint8_t*>(m), Unmap{size_}};
      // Sequential drain is the dominant access pattern; advisory only.
      (void)::madvise(m, size_, MADV_SEQUENTIAL);
    }
    ::close(fd);
#endif
  }
  std::vector<std::uint8_t> head;
  hdr_ = read_container_header(bytes(0, kMaxHeaderBytes, head), size_, path_);
}

void ContainerFile::Unmap::operator()(const std::uint8_t* map) const {
#ifdef RESIM_HAVE_MMAP
  ::munmap(const_cast<std::uint8_t*>(map), static_cast<std::size_t>(size));
#else
  (void)map;
#endif
}

std::span<const std::uint8_t> ContainerFile::bytes(std::uint64_t off, std::uint64_t n,
                                                   std::vector<std::uint8_t>& into) {
  off = std::min(off, size_);
  n = std::min(n, size_ - off);
  if (mapped_) return {map_.get() + off, static_cast<std::size_t>(n)};
  into.resize(static_cast<std::size_t>(n));
  if (n == 0) return into;
  if (off != pos_) {
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(off));
  }
  is_.read(reinterpret_cast<char*>(into.data()), static_cast<std::streamsize>(n));
  if (!is_) {
    pos_ = ~std::uint64_t{0};  // unknown: the next read seeks
    throw std::runtime_error("load_trace: truncated chunk in " + path_);
  }
  pos_ = off + n;
  return into;
}

ChunkHeader ContainerFile::chunk_header(std::uint64_t off, std::uint64_t records_remaining) {
  return read_chunk_header(bytes(off, chunk_header_bytes(hdr_.version), hdr_buf_), off, hdr_,
                           records_remaining, size_, path_);
}

// --- FileTraceSource -------------------------------------------------------

FileTraceSource::FileTraceSource(std::string path, ByteMode mode)
    : who_(mode == ByteMode::kMapped ? "MmapTraceSource" : "FileTraceSource"),
      file_(std::move(path), mode, who_),
      dec_(file_.path()) {
  const ContainerHeader& h = file_.header();
  if (h.version == kContainerV1) {
    // v1 has one monolithic payload: keep its (compact) encoded bytes
    // resident — read once, or mapped — and decode in bounded batches.
    v1_payload_ = file_.bytes(h.payload_start, h.payload_len, encoded_);
  }
  rewind();
  // An empty v2+ trace must end right after the header; non-empty ones
  // are checked after their last chunk.
  if (h.version != kContainerV1) check_end();
}

void FileTraceSource::check_end() const {
  if (chunks_read_ == file_.header().chunk_count && offset_ != file_.size()) {
    throw std::runtime_error("load_trace: trailing garbage after last chunk in " +
                             file_.path());
  }
}

void FileTraceSource::refill() {
  const ContainerHeader& h = file_.header();
  std::uint64_t n = 0;
  if (h.version == kContainerV1) {
    n = std::min<std::uint64_t>(kDefaultChunkRecords, dec_.left());
  } else {
    const ChunkHeader ch = file_.chunk_header(offset_, h.record_count - next_record_);
    offset_ += chunk_header_bytes(h.version);
    dec_.open(file_.bytes(offset_, ch.payload_bytes, encoded_), ch, chunks_read_,
              next_record_);
    offset_ += ch.payload_bytes;
    n = ch.record_count;
  }
  dec_.decode(n, buf_);
  buf_pos_ = 0;
  next_record_ += n;
  max_buffered_ = std::max(max_buffered_, buf_.size());
  ++chunks_decoded_;
  if (h.version != kContainerV1) {
    ++chunks_read_;
    check_end();
  }
}

std::uint64_t FileTraceSource::skip(std::uint64_t n) {
  std::uint64_t done = 0;
  // Records already decoded into the buffer are consumed normally (they
  // were paid for; this also keeps bits_ exact for them).
  while (done < n && buf_pos_ < buf_.size()) {
    (void)next();
    ++done;
  }
  const ContainerHeader& h = file_.header();
  // Whole chunks inside the remaining skip region: validate the header,
  // hop the stored payload unread, and account at frame granularity.
  while (h.version != kContainerV1 && done < n && next_record_ < h.record_count) {
    const std::uint64_t remaining = h.record_count - next_record_;
    if (n - done < std::min<std::uint64_t>(remaining, h.chunk_records)) break;
    const ChunkHeader ch = file_.chunk_header(offset_, remaining);
    offset_ += chunk_header_bytes(h.version) + ch.payload_bytes;
    next_record_ += ch.record_count;
    consumed_ += ch.record_count;
    bits_ += std::uint64_t{ch.raw_bytes} * 8;
    done += ch.record_count;
    ++chunks_read_;
    ++chunks_skipped_;
    check_end();
  }
  // Remainder (a partial chunk, or any v1 stream): decode and discard.
  while (done < n && peek() != nullptr) {
    (void)next();
    ++done;
  }
  return done;
}

const TraceRecord* FileTraceSource::peek() {
  while (buf_pos_ == buf_.size()) {
    if (next_record_ >= file_.header().record_count) return nullptr;
    refill();
  }
  return &buf_[buf_pos_];
}

TraceRecord FileTraceSource::next() {
  if (peek() == nullptr) {
    throw std::out_of_range(std::string(who_) + "::next: past end of trace");
  }
  const TraceRecord r = buf_[buf_pos_++];
  ++consumed_;
  bits_ += encoded_bits(r);
  return r;
}

void FileTraceSource::rewind() {
  consumed_ = 0;
  bits_ = 0;
  next_record_ = 0;
  chunks_read_ = 0;
  chunks_skipped_ = 0;
  buf_.clear();
  buf_pos_ = 0;
  offset_ = file_.header().payload_start;
  if (file_.header().version == kContainerV1) {
    dec_.open_v1(v1_payload_, file_.header().record_count);
  }
}

}  // namespace resim::trace
