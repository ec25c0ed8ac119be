// Roundtrip, framing, and behavioural tests across all three universal
// codecs, plus codec-specific edge cases.
#include <gtest/gtest.h>

#include "compress/bwt_codec.h"
#include "compress/codec.h"
#include "compress/deflate.h"
#include "compress/lzw.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ecomp::compress {
namespace {

using workload::FileKind;

Bytes sample(FileKind kind, std::size_t size, std::uint64_t seed) {
  return workload::generate_kind(kind, size, seed, 0.0);
}

// ------------------------------------------------- cross-codec properties

struct CodecCase {
  const char* name;
  FileKind kind;
  std::size_t size;
};

using RoundTripParam = std::tuple<const char*, CodecCase>;

// Prints the case label ("bwt_binary"). gtest's default dump shows the
// const char* address, which moves with ASLR on every run. CMake's test
// discovery names an index-named case after its printed parameter
// (Matrix/AllCodecsRoundTrip.Lossless/bwt_binary) but would append the
// whole dump to a custom-named one, hence no name generator either.
void PrintTo(const RoundTripParam& p, std::ostream* os) {
  *os << std::get<0>(p) << '_' << std::get<1>(p).name;
}

class AllCodecsRoundTrip : public ::testing::TestWithParam<RoundTripParam> {
};

TEST_P(AllCodecsRoundTrip, Lossless) {
  const auto& [codec_name, c] = GetParam();
  const auto codec = make_codec(codec_name);
  const Bytes input = sample(c.kind, c.size, 42);
  const Bytes packed = codec->compress(input);
  const Bytes output = codec->decompress(packed);
  EXPECT_EQ(output, input);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllCodecsRoundTrip,
    ::testing::Combine(
        ::testing::Values("deflate", "lzw", "bwt"),
        ::testing::Values(
            CodecCase{"xml", FileKind::Xml, 200000},
            CodecCase{"log", FileKind::Log, 150000},
            CodecCase{"source", FileKind::Source, 120000},
            CodecCase{"binary", FileKind::Binary, 100000},
            CodecCase{"wav", FileKind::Wav, 80000},
            CodecCase{"media", FileKind::Media, 90000},
            CodecCase{"random", FileKind::Random, 60000},
            CodecCase{"tiny", FileKind::Mail, 700},
            CodecCase{"mixed", FileKind::TarMixed, 400000})));

class CodecEdgeCases : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecEdgeCases, EmptyInput) {
  const auto codec = make_codec(GetParam());
  const Bytes packed = codec->compress({});
  EXPECT_EQ(codec->decompress(packed), Bytes{});
}

TEST_P(CodecEdgeCases, SingleByte) {
  const auto codec = make_codec(GetParam());
  const Bytes input = {0x42};
  EXPECT_EQ(codec->decompress(codec->compress(input)), input);
}

TEST_P(CodecEdgeCases, AllSameByte) {
  const auto codec = make_codec(GetParam());
  const Bytes input(300000, 0xAA);
  const Bytes packed = codec->compress(input);
  EXPECT_EQ(codec->decompress(packed), input);
  // Degenerate input must compress extremely well.
  EXPECT_LT(packed.size(), input.size() / 100);
}

TEST_P(CodecEdgeCases, AllByteValues) {
  const auto codec = make_codec(GetParam());
  Bytes input;
  for (int rep = 0; rep < 40; ++rep)
    for (int b = 0; b < 256; ++b)
      input.push_back(static_cast<std::uint8_t>(b));
  EXPECT_EQ(codec->decompress(codec->compress(input)), input);
}

TEST_P(CodecEdgeCases, ShortRepeats) {
  const auto codec = make_codec(GetParam());
  for (const char* pat : {"ab", "abc", "aab", "xyzzy"}) {
    Bytes input;
    while (input.size() < 5000) {
      for (const char* p = pat; *p; ++p)
        input.push_back(static_cast<std::uint8_t>(*p));
    }
    EXPECT_EQ(codec->decompress(codec->compress(input)), input) << pat;
  }
}

TEST_P(CodecEdgeCases, TruncatedStreamThrows) {
  const auto codec = make_codec(GetParam());
  const Bytes input = sample(FileKind::Xml, 50000, 9);
  Bytes packed = codec->compress(input);
  packed.resize(packed.size() / 2);
  EXPECT_THROW(codec->decompress(packed), Error);
}

TEST_P(CodecEdgeCases, CorruptPayloadDetected) {
  const auto codec = make_codec(GetParam());
  const Bytes input = sample(FileKind::Source, 60000, 10);
  Bytes packed = codec->compress(input);
  // Flip a bit in the middle of the payload; either the decoder throws
  // (invalid stream) or the CRC check rejects the result.
  packed[packed.size() / 2] ^= 0x10;
  bool detected = false;
  try {
    const Bytes out = codec->decompress(packed);
    detected = out != input;  // CRC must have thrown before this point
  } catch (const Error&) {
    detected = true;
  }
  EXPECT_TRUE(detected);
}

TEST_P(CodecEdgeCases, WrongMagicRejected) {
  const auto codec = make_codec(GetParam());
  Bytes junk = {0x00, 0x00, 0x05, 1, 2, 3, 4, 5};
  EXPECT_THROW(codec->decompress(junk), Error);
}

TEST_P(CodecEdgeCases, DeterministicOutput) {
  const auto codec = make_codec(GetParam());
  const Bytes input = sample(FileKind::Log, 80000, 17);
  EXPECT_EQ(codec->compress(input), codec->compress(input));
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecEdgeCases,
                         ::testing::Values("deflate", "lzw", "bwt"));

// ---------------------------------------------------- paper-shaped facts

TEST(CodecComparison, FactorOrderingOnTextMatchesPaper) {
  // Table 2: on text-like data bzip2 compresses deepest, compress least.
  const Bytes text = sample(FileKind::Xml, 400000, 3);
  const double f_deflate = compression_factor(*make_deflate(), text);
  const double f_lzw = compression_factor(*make_lzw(), text);
  const double f_bwt = compression_factor(*make_bwt(), text);
  EXPECT_GT(f_bwt, f_deflate);
  EXPECT_GT(f_deflate, f_lzw);
  EXPECT_GT(f_lzw, 1.5);
}

TEST(CodecComparison, RandomDataDoesNotCompress) {
  const Bytes noise = sample(FileKind::Random, 300000, 4);
  EXPECT_NEAR(compression_factor(*make_deflate(), noise), 1.0, 0.01);
  EXPECT_NEAR(compression_factor(*make_bwt(), noise), 1.0, 0.02);
  // Table 2 shows compress *expanding* random data (factor 0.81).
  EXPECT_LT(compression_factor(*make_lzw(), noise), 0.95);
}

TEST(Deflate, HigherLevelNeverMuchWorse) {
  const Bytes input = sample(FileKind::Source, 300000, 5);
  const double f1 = compression_factor(*make_deflate(1), input);
  const double f9 = compression_factor(*make_deflate(9), input);
  EXPECT_GE(f9, f1 * 0.98);
}

TEST(Deflate, StoredBlocksKickInForIncompressibleData) {
  const Bytes noise = sample(FileKind::Random, 100000, 6);
  const Bytes packed = DeflateCodec(9).compress(noise);
  // Overhead must be tiny thanks to stored blocks (< 0.2%).
  EXPECT_LT(packed.size(), noise.size() + noise.size() / 500 + 64);
}

TEST(Lzw, MaxBitsValidation) {
  EXPECT_THROW(LzwCodec(8), Error);
  EXPECT_THROW(LzwCodec(17), Error);
  EXPECT_NO_THROW(LzwCodec(9));
  EXPECT_NO_THROW(LzwCodec(16));
}

TEST(Lzw, SmallDictionaryStillRoundTrips) {
  // 9-bit cap forces constant dictionary churn.
  const LzwCodec small(9);
  const Bytes input = sample(FileKind::Xml, 200000, 7);
  EXPECT_EQ(small.decompress(small.compress(input)), input);
}

TEST(Lzw, DictionaryResetPathExercised) {
  // Structure change mid-file degrades the factor and triggers CLEAR:
  // compressible prefix, then noise, then compressible tail.
  Bytes input = sample(FileKind::Xml, 400000, 8);
  const Bytes noise = sample(FileKind::Random, 400000, 9);
  input.insert(input.end(), noise.begin(), noise.end());
  const Bytes tail = sample(FileKind::Xml, 400000, 10);
  input.insert(input.end(), tail.begin(), tail.end());
  const LzwCodec codec(12);  // small dictionary fills quickly
  EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(Lzw, KwkwkPattern) {
  // 'aaaa...' exercises the code==avail (KwKwK) decoder path densely.
  Bytes input;
  for (int i = 0; i < 1000; ++i)
    input.insert(input.end(), static_cast<std::size_t>(i % 7 + 1), 'a');
  const LzwCodec codec;
  EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(BwtCodec, BlockSizeFollowsLevel) {
  EXPECT_EQ(BwtCodec(1).block_size(), 100'000u);
  EXPECT_EQ(BwtCodec(9).block_size(), 900'000u);
}

TEST(BwtCodec, MultiBlockFiles) {
  const BwtCodec codec(1);  // 100 KB blocks
  const Bytes input = sample(FileKind::Log, 350000, 11);
  EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(BwtCodec, MultiTableRoundTripsEveryCap) {
  const Bytes input = sample(FileKind::TarMixed, 300000, 12);
  for (int cap : {1, 2, 3, 6}) {
    const BwtCodec codec(9, cap);
    EXPECT_EQ(codec.decompress(codec.compress(input)), input) << cap;
  }
}

TEST(BwtCodec, MultiTableHelpsHeterogeneousData) {
  // Mixed content has regions with different symbol statistics — the
  // whole point of bzip2's selector mechanism.
  const Bytes input = sample(FileKind::TarMixed, 600000, 13);
  const Bytes single = BwtCodec(9, 1).compress(input);
  const Bytes multi = BwtCodec(9, 6).compress(input);
  EXPECT_LT(multi.size(), single.size());
}

TEST(BwtCodec, MultiTableDecodableBySingleTableDecoder) {
  // The decoder reads the table count from the stream: outputs of any
  // cap decode with any codec instance.
  const Bytes input = sample(FileKind::Xml, 200000, 14);
  const Bytes multi = BwtCodec(9, 6).compress(input);
  EXPECT_EQ(BwtCodec(9, 1).decompress(multi), input);
}

class CodecSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecSeedSweep, RandomStructuredRoundTrips) {
  // Property sweep: random mixtures of runs, literals and copies.
  Rng rng(GetParam());
  Bytes input;
  const std::size_t target = 30000 + rng.below(80000);
  while (input.size() < target) {
    switch (rng.below(3)) {
      case 0:
        input.insert(input.end(), 1 + rng.below(200), rng.byte());
        break;
      case 1:
        for (int i = 0; i < 50; ++i) input.push_back(rng.byte());
        break;
      default:
        if (!input.empty()) {
          const std::size_t d = 1 + rng.below(std::min<std::size_t>(
                                        input.size(), 30000));
          const std::size_t l = 1 + rng.below(300);
          const std::size_t from = input.size() - d;
          for (std::size_t i = 0; i < l; ++i)
            input.push_back(input[from + i]);
        }
        break;
    }
  }
  for (const auto& name : codec_names()) {
    const auto codec = make_codec(name);
    EXPECT_EQ(codec->decompress(codec->compress(input)), input) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecSeedSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

TEST(CodecRegistry, NamesAndAliases) {
  EXPECT_EQ(make_codec("gzip")->name(), "deflate");
  EXPECT_EQ(make_codec("compress")->name(), "lzw");
  EXPECT_EQ(make_codec("bzip2")->name(), "bwt");
  EXPECT_THROW(make_codec("zstd"), Error);
  EXPECT_EQ(codec_names().size(), 3u);
}

TEST(CodecRegistry, OsFormatCodecsRoundTrip) {
  // The interoperable on-disk formats are also reachable via the
  // registry (for the CLI and the planner's sampling).
  const Bytes input = sample(FileKind::Source, 60000, 30);
  for (const char* name : {"gz", "Z", "bz2"}) {
    const auto codec = make_codec(name);
    EXPECT_EQ(codec->name(), name);
    EXPECT_EQ(codec->decompress(codec->compress(input)), input) << name;
  }
}

}  // namespace
}  // namespace ecomp::compress
