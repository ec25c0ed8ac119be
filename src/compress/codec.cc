#include "compress/codec.h"

#include "compress/bwt_codec.h"
#include "compress/bz2_format.h"
#include "compress/deflate.h"
#include "compress/gzip_format.h"
#include "compress/lzw.h"
#include "compress/z_format.h"

namespace ecomp::compress {
namespace {

/// Wrappers exposing the interoperable on-disk formats through the
/// Codec interface. Note: .Z carries no integrity check (the historical
/// format has none), so its decompress only detects structural damage.
class GzFormatCodec final : public Codec {
 public:
  explicit GzFormatCodec(int level) : level_(level) {}
  std::string_view name() const override { return "gz"; }
  Bytes compress(ByteSpan input) const override {
    return gzip_compress(input, level_);
  }
  Bytes decompress(ByteSpan input) const override {
    return gzip_decompress(input);
  }

 private:
  int level_;
};

class ZFormatCodec final : public Codec {
 public:
  std::string_view name() const override { return "Z"; }
  Bytes compress(ByteSpan input) const override { return z_compress(input); }
  Bytes decompress(ByteSpan input) const override {
    return z_decompress(input);
  }
};

class Bz2FormatCodec final : public Codec {
 public:
  explicit Bz2FormatCodec(int level) : level_(level) {}
  std::string_view name() const override { return "bz2"; }
  Bytes compress(ByteSpan input) const override {
    return bz2_compress(input, level_);
  }
  Bytes decompress(ByteSpan input) const override {
    return bz2_decompress(input);
  }

 private:
  int level_;
};

}  // namespace

double compression_factor(const Codec& codec, ByteSpan input) {
  if (input.empty()) return 1.0;
  const Bytes out = codec.compress(input);
  if (out.empty()) return 1.0;
  return static_cast<double>(input.size()) / static_cast<double>(out.size());
}

std::unique_ptr<Codec> make_deflate(int level) {
  return std::make_unique<DeflateCodec>(level);
}

std::unique_ptr<Codec> make_lzw(int max_bits) {
  return std::make_unique<LzwCodec>(max_bits);
}

std::unique_ptr<Codec> make_bwt(int level) {
  return std::make_unique<BwtCodec>(level);
}

std::unique_ptr<Codec> make_codec(std::string_view name, int level) {
  if (name == "deflate" || name == "gzip" || name == "zlib")
    return make_deflate(level);
  if (name == "lzw" || name == "compress") return make_lzw();
  if (name == "bwt" || name == "bzip2") return make_bwt(level);
  // The interoperable on-disk formats of the paper's three tools.
  if (name == "gz") return std::make_unique<GzFormatCodec>(level);
  if (name == "Z") return std::make_unique<ZFormatCodec>();
  if (name == "bz2") return std::make_unique<Bz2FormatCodec>(level);
  throw Error("unknown codec: " + std::string(name));
}

std::vector<std::string> codec_names() { return {"deflate", "lzw", "bwt"}; }

}  // namespace ecomp::compress
