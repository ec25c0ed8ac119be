// DEFLATE-style codec (RFC 1951 block format) over the LZ77 tokenizer —
// the repo's stand-in for gzip 1.2.4 / zlib 1.1.3.
//
// The bit-level block format follows RFC 1951 (stored / fixed-Huffman /
// dynamic-Huffman blocks, length+distance alphabets, code-length code
// with 16/17/18 repeats). The framing differs from gzip only in the
// container header (see container.h), which carries the original size
// and CRC-32 like a gzip member trailer does.
#pragma once

#include <cstdint>
#include <memory>

#include "compress/codec.h"
#include "compress/lz77.h"
#include "util/bitio.h"
#include "util/bytes.h"

namespace ecomp::compress {

inline constexpr std::uint16_t kDeflateMagic = 0xE001;

/// Raw DEFLATE bit-stream (no ecomp container): compress `input` as a
/// sequence of blocks, the last marked BFINAL, into `out`.
void deflate_raw(ByteSpan input, const Lz77Params& params, BitWriterLsb& out);

/// Inverse of deflate_raw: reads blocks until BFINAL. `size_hint` is
/// used only to reserve the output buffer.
Bytes inflate_raw(BitReaderLsb& in, std::size_t size_hint = 0);

class DeflateCodec final : public Codec {
 public:
  explicit DeflateCodec(int level = 9)
      : level_(level), params_(Lz77Params::for_level(level)) {}

  std::string_view name() const override { return "deflate"; }
  Bytes compress(ByteSpan input) const override;
  Bytes decompress(ByteSpan input) const override;

  int level() const { return level_; }

 private:
  int level_;
  Lz77Params params_;
};

}  // namespace ecomp::compress
