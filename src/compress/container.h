// Shared framed-container helpers: every codec's output carries a magic
// tag, the original size, and a CRC-32 of the original data, in the
// spirit of the gzip member format.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace ecomp::compress {

/// Append a little-endian unsigned integer of `n` bytes.
void put_le(Bytes& out, std::uint64_t v, int n);

/// Read a little-endian unsigned integer, advancing `pos`. Throws on
/// truncation.
std::uint64_t get_le(ByteSpan in, std::size_t& pos, int n);

/// Append an unsigned LEB128 varint.
void put_varint(Bytes& out, std::uint64_t v);

/// Read an unsigned LEB128 varint, advancing `pos`.
std::uint64_t get_varint(ByteSpan in, std::size_t& pos);

/// Standard header layout used by all ecomp codecs:
///   magic (2 bytes) | varint original_size | crc32 (4 bytes LE)
struct Header {
  std::uint64_t original_size = 0;
  std::uint32_t crc = 0;
  std::size_t payload_offset = 0;  // where codec payload begins
};

void write_header(Bytes& out, std::uint16_t magic, std::uint64_t orig_size,
                  std::uint32_t crc);
Header read_header(ByteSpan in, std::uint16_t magic);

/// Verify payload CRC after decode; throws Error on mismatch.
void check_crc(const Header& h, ByteSpan decoded);

/// A size field is a claim that damage can rewrite, so no claim is
/// trusted past this many output bytes per payload byte. Deflate's own
/// bound is ~1032x (two bits per 258-byte match), so a deflate member
/// or selective block claiming more is damage, not data, and is
/// refused; every decoder also reserves at most this much up front. A
/// genuinely larger LZW or BWT output still decodes (the buffer grows),
/// and the decoder's size and CRC checks reject a false claim.
inline constexpr std::uint64_t kMaxExpansion = 4096;

/// Reservation for an output whose size is `claimed` by a header
/// followed by `payload_bytes` of coded data.
inline std::size_t reserve_hint(std::uint64_t claimed,
                                std::size_t payload_bytes) {
  const std::uint64_t cap = payload_bytes * kMaxExpansion;
  return static_cast<std::size_t>(claimed < cap ? claimed : cap);
}

}  // namespace ecomp::compress
