// Abstract codec interface + registry for ecomp's three universal
// lossless compressors (the paper's gzip / compress / bzip2 trio).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace ecomp::compress {

/// A one-shot universal lossless codec. Implementations are stateless
/// and thread-compatible: const methods may be called concurrently.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Short tool-style name ("deflate", "lzw", "bwt").
  virtual std::string_view name() const = 0;

  /// Compress the whole input into a self-contained framed buffer.
  virtual Bytes compress(ByteSpan input) const = 0;

  /// Decompress a buffer produced by compress(). Throws ecomp::Error on
  /// corrupt or mismatched input.
  virtual Bytes decompress(ByteSpan input) const = 0;
};

/// input_size / output_size (the paper's "compression factor"; its
/// reciprocal is the "compression ratio"). Empty input has factor 1.
double compression_factor(const Codec& codec, ByteSpan input);

/// Built-in codecs at a given effort level.
/// level: 1 (fast) .. 9 (best), matching the paper's use of "-9".
std::unique_ptr<Codec> make_deflate(int level = 9);
std::unique_ptr<Codec> make_lzw(int max_bits = 16);
std::unique_ptr<Codec> make_bwt(int level = 9);

/// Lookup by name ("deflate"|"gzip", "lzw"|"compress", "bwt"|"bzip2"),
/// at `level` where the codec has one (LZW has none; for BWT it is the
/// block size in 100 KB, as bzip2's -1..-9). Throws Error for unknown
/// names.
std::unique_ptr<Codec> make_codec(std::string_view name, int level = 9);

/// All registered codec names (canonical forms).
std::vector<std::string> codec_names();

}  // namespace ecomp::compress
