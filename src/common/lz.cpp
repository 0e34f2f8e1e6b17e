#include "common/lz.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace resim::lz {

namespace {

constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

/// Fibonacci hash of the 4 bytes at src[i] (little-endian load by
/// shifts: no alignment or endianness assumptions).
std::uint32_t hash4(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16) |
                          (static_cast<std::uint32_t>(p[3]) << 24);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Appends LZ4-style length coding: `n` on top of a nibble that already
/// carried 15.
void put_length_ext(std::vector<std::uint8_t>& out, std::size_t n) {
  while (n >= 255) {
    out.push_back(255);
    n -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(n));
}

/// One compressed sequence: `nlit` literals starting at `lit`, then a
/// match of `mlen` bytes at `offset` back (mlen == 0 for the final
/// literals-only sequence).
void put_sequence(std::vector<std::uint8_t>& out, const std::uint8_t* lit,
                  std::size_t nlit, std::size_t offset, std::size_t mlen) {
  const std::size_t lit_nib = nlit < 15 ? nlit : 15;
  const std::size_t match_code = mlen == 0 ? 0 : mlen - kMinMatch;
  const std::size_t match_nib = match_code < 15 ? match_code : 15;
  out.push_back(static_cast<std::uint8_t>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) put_length_ext(out, nlit - 15);
  out.insert(out.end(), lit, lit + nlit);
  if (mlen == 0) return;
  out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
  out.push_back(static_cast<std::uint8_t>(offset >> 8));
  if (match_nib == 15) put_length_ext(out, match_code - 15);
}

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("lz::decompress: ") + what);
}

}  // namespace

std::size_t compress_bound(std::size_t n) {
  // Worst case is all literals: 1 token + ceil((n-15)/255) extension
  // bytes + n literals, plus slack for the empty-input token.
  return n + n / 255 + 16;
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  out.reserve(src.size() / 2 + 16);

  // table[h] = position + 1 of a recent occurrence of the hashed 4-gram
  // (0 = empty); single-probe, greedy parse.
  std::vector<std::uint32_t> table(kHashSize, 0);

  const std::uint8_t* const base = src.data();
  const std::size_t n = src.size();
  std::size_t pos = 0;        // next byte to encode
  std::size_t lit_start = 0;  // first literal not yet emitted
  // Matches must not start within the last kMinMatch bytes (nothing to
  // hash there) and the final sequence must be literals-only.
  const std::size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;

  while (pos < match_limit) {
    const std::uint32_t h = hash4(base + pos);
    const std::uint32_t prev = table[h];
    table[h] = static_cast<std::uint32_t>(pos + 1);
    if (prev != 0) {
      const std::size_t cand = prev - 1;
      const std::size_t offset = pos - cand;
      if (offset <= kMaxOffset && base[cand] == base[pos] &&
          base[cand + 1] == base[pos + 1] && base[cand + 2] == base[pos + 2] &&
          base[cand + 3] == base[pos + 3]) {
        std::size_t mlen = kMinMatch;
        while (pos + mlen < n && base[cand + mlen] == base[pos + mlen]) ++mlen;
        put_sequence(out, base + lit_start, pos - lit_start, offset, mlen);
        // Seed the table inside the match so adjacent repeats are found
        // (every other position: enough for long runs, cheap to build).
        const std::size_t end = pos + mlen;
        for (std::size_t i = pos + 1; i + kMinMatch <= end && i < match_limit; i += 2) {
          table[hash4(base + i)] = static_cast<std::uint32_t>(i + 1);
        }
        pos = end;
        lit_start = pos;
        continue;
      }
    }
    ++pos;
  }
  put_sequence(out, base + lit_start, n - lit_start, 0, 0);
  return out;
}

void decompress(std::span<const std::uint8_t> src, std::span<std::uint8_t> dst) {
  const std::uint8_t* in = src.data();
  const std::uint8_t* const in_end = in + src.size();
  std::uint8_t* const out = dst.data();
  const std::size_t out_size = dst.size();
  std::size_t op = 0;

  auto read_length = [&](std::size_t nibble) -> std::size_t {
    std::size_t len = nibble;
    if (nibble == 15) {
      std::uint8_t b = 255;
      while (b == 255) {
        if (in == in_end) corrupt("truncated length");
        b = *in++;
        len += b;
      }
    }
    return len;
  };

  while (true) {
    if (in == in_end) corrupt("truncated stream (missing final sequence)");
    const std::uint8_t token = *in++;
    const std::size_t nlit = read_length(token >> 4);
    if (nlit > static_cast<std::size_t>(in_end - in)) corrupt("truncated literals");
    if (nlit > out_size - op) corrupt("output overrun (literals)");
    if (nlit != 0) std::memcpy(out + op, in, nlit);
    in += nlit;
    op += nlit;

    if (in == in_end) {
      // Final sequence: literals only; a match nibble here would name a
      // match the stream has no offset for.
      if ((token & 0x0F) != 0) corrupt("final sequence names a match");
      break;
    }
    if (in_end - in < 2) corrupt("truncated offset");
    const std::size_t offset = static_cast<std::size_t>(in[0]) |
                               (static_cast<std::size_t>(in[1]) << 8);
    in += 2;
    if (offset == 0) corrupt("zero match offset");
    if (offset > op) corrupt("match offset before start of output");
    const std::size_t mlen = read_length(token & 0x0F) + kMinMatch;
    if (mlen > out_size - op) corrupt("output overrun (match)");
    if (offset >= mlen) {
      std::memcpy(out + op, out + op - offset, mlen);
    } else {
      // Byte by byte: an overlapping match (offset < mlen) replicates a run.
      for (std::size_t i = 0; i < mlen; ++i) out[op + i] = out[op + i - offset];
    }
    op += mlen;
  }
  if (op != out_size) corrupt("output underrun");
}

}  // namespace resim::lz
