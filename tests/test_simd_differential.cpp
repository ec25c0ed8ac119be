// Differential tests for the perf-optimised hot paths: every fast
// implementation is checked byte-for-byte against its reference over
// randomized buffers and generated corpus material.
//
//  * SIMD kernels (match_length, find_byte_index, crc32_update): the
//    dispatched kernel at every tier the CPU supports vs the always-
//    compiled scalar reference.
//  * Flat-table Huffman decode vs the canonical bit-by-bit walk, both
//    bit orders, including length-limited codes forced past the 12-bit
//    root table so chained subtables are exercised.
//  * SA-IS bwt_forward vs the prefix-doubling reference (including
//    periodic blocks, where tie order is the subtle part) and the
//    stride-8 packed bwt_inverse round trip across its size cutoffs.
//  * Whole-codec byte identity across simd::set_level tiers.
//  * The encoder golden (tests/data/codec.golden): size and CRC-32 of
//    every container each encoder produces over a fixed input set, so
//    an encoder optimisation that changes one output byte fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "compress/bwt.h"
#include "compress/bwt_codec.h"
#include "compress/bz2_format.h"
#include "compress/codec.h"
#include "compress/deflate.h"
#include "compress/gzip_format.h"
#include "compress/huffman.h"
#include "compress/lzw.h"
#include "compress/selective.h"
#include "compress/z_format.h"
#include "compress/zlib_format.h"
#include "core/planner.h"
#include "obs/metrics.h"
#include "util/bitio.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/simd.h"
#include "workload/generator.h"

namespace ecomp {
namespace {

/// Every tier from scalar up to what this CPU actually supports.
std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels;
  for (int l = 0; l <= static_cast<int>(simd::detected_level()); ++l)
    levels.push_back(static_cast<simd::Level>(l));
  return levels;
}

/// Restores the pre-test dispatch level even if an assertion fails.
class SimdDifferential : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_level(saved_); }
  simd::Level saved_ = simd::active_level();
};

Bytes random_bytes(Rng& rng, std::size_t n, int alphabet = 256) {
  Bytes out(n);
  for (auto& b : out)
    b = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(alphabet)));
  return out;
}

// ---------------------------------------------------------------------------
// SIMD kernels vs scalar reference.

TEST_F(SimdDifferential, MatchLengthAgreesAtEveryLevel) {
  Rng rng(0x51411);
  for (int iter = 0; iter < 200; ++iter) {
    // Two buffers sharing a planted common prefix; lengths straddle the
    // 16/32-byte vector widths and the cap.
    const int prefix = static_cast<int>(rng.below(300));
    const int tail = static_cast<int>(rng.below(64));
    Bytes a = random_bytes(rng, static_cast<std::size_t>(prefix + tail + 1));
    Bytes b = a;
    // Force a divergence right after the prefix (random tails may
    // accidentally agree; the reference handles that identically, but a
    // planted mismatch makes the expected value obvious).
    b[static_cast<std::size_t>(prefix)] ^= 0x5a;
    for (std::size_t i = static_cast<std::size_t>(prefix) + 1; i < b.size();
         ++i)
      b[i] = rng.byte();
    const int max_len = static_cast<int>(a.size());
    const int want = simd::scalar::match_length(a.data(), b.data(), max_len);
    ASSERT_EQ(want, prefix);
    for (simd::Level level : supported_levels()) {
      simd::set_level(level);
      EXPECT_EQ(simd::match_length(a.data(), b.data(), max_len), want)
          << "level " << simd::level_name(level) << " prefix " << prefix;
      // Capped shorter than the divergence point.
      const int cap = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(max_len) + 1));
      EXPECT_EQ(simd::match_length(a.data(), b.data(), cap),
                simd::scalar::match_length(a.data(), b.data(), cap))
          << "level " << simd::level_name(level) << " cap " << cap;
    }
  }
}

TEST_F(SimdDifferential, FindByteIndexAgreesAtEveryLevel) {
  Rng rng(0xf1ddb);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = static_cast<int>(rng.below(300));
    Bytes buf = random_bytes(rng, static_cast<std::size_t>(n), 7);
    // Probe values both present (small alphabet => common) and absent.
    const std::uint8_t probe =
        static_cast<std::uint8_t>(rng.below(2) ? rng.below(7) : 0xee);
    const int want = simd::scalar::find_byte_index(buf.data(), n, probe);
    for (simd::Level level : supported_levels()) {
      simd::set_level(level);
      EXPECT_EQ(simd::find_byte_index(buf.data(), n, probe), want)
          << "level " << simd::level_name(level) << " n " << n;
    }
  }
}

TEST_F(SimdDifferential, Crc32KnownVectorAtEveryLevel) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (simd::Level level : supported_levels()) {
    simd::set_level(level);
    const std::uint32_t raw =
        simd::crc32_update(0xffffffffu, check, sizeof check);
    EXPECT_EQ(~raw, 0xCBF43926u) << "level " << simd::level_name(level);
  }
}

TEST_F(SimdDifferential, Crc32SplitStateMatchesOneShotAtEveryLevel) {
  Rng rng(0xc3c32);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.below(5000);
    const Bytes buf = random_bytes(rng, n);
    const std::uint32_t want =
        simd::scalar::crc32_update(0xffffffffu, buf.data(), n);
    for (simd::Level level : supported_levels()) {
      simd::set_level(level);
      // One-shot.
      EXPECT_EQ(simd::crc32_update(0xffffffffu, buf.data(), n), want)
          << "level " << simd::level_name(level);
      // Continuation across random split points, including tiny chunks
      // below any fold width.
      std::uint32_t state = 0xffffffffu;
      std::size_t at = 0;
      while (at < n) {
        const std::size_t take = std::min(n - at, 1 + rng.below(257));
        state = simd::crc32_update(state, buf.data() + at, take);
        at += take;
      }
      EXPECT_EQ(state, want) << "level " << simd::level_name(level);
    }
  }
}

TEST_F(SimdDifferential, Crc32ClassMatchesKernel) {
  Rng rng(0xcc321);
  const Bytes buf = random_bytes(rng, 4097);
  Crc32 c;
  c.update(buf);
  EXPECT_EQ(c.value(),
            ~simd::scalar::crc32_update(0xffffffffu, buf.data(), buf.size()));
}

// ---------------------------------------------------------------------------
// Flat-table Huffman decode vs the canonical walk.

/// Encode `syms` with the given lengths and check that decode() and
/// decode_walk() produce identical symbols AND consume identical bit
/// counts, for both bit orders.
void check_huffman_both_orders(const std::vector<std::uint8_t>& lengths,
                               const std::vector<std::uint32_t>& syms) {
  {
    huffman::EncoderLsb enc(lengths);
    BitWriterLsb w;
    for (std::uint32_t s : syms) enc.encode(w, s);
    const Bytes stream = w.take();
    huffman::DecoderLsb dec(lengths);
    BitReaderLsb flat(stream), walk(stream);
    for (std::size_t i = 0; i < syms.size(); ++i) {
      ASSERT_EQ(dec.decode(flat), syms[i]) << "lsb flat at " << i;
      ASSERT_EQ(dec.decode_walk(walk), syms[i]) << "lsb walk at " << i;
      ASSERT_EQ(flat.bits_consumed(), walk.bits_consumed()) << "at " << i;
    }
  }
  {
    huffman::EncoderMsb enc(lengths);
    BitWriterMsb w;
    for (std::uint32_t s : syms) enc.encode(w, s);
    const Bytes stream = w.take();
    huffman::DecoderMsb dec(lengths);
    BitReaderMsb flat(stream), walk(stream);
    for (std::size_t i = 0; i < syms.size(); ++i) {
      ASSERT_EQ(dec.decode(flat), syms[i]) << "msb flat at " << i;
      ASSERT_EQ(dec.decode_walk(walk), syms[i]) << "msb walk at " << i;
      ASSERT_EQ(flat.bits_consumed(), walk.bits_consumed()) << "at " << i;
    }
  }
}

/// A random symbol stream that uses every coded symbol at least once
/// (so the longest codes are guaranteed to be decoded).
std::vector<std::uint32_t> stream_covering(
    const std::vector<std::uint8_t>& lengths, Rng& rng, std::size_t extra) {
  std::vector<std::uint32_t> coded;
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) coded.push_back(static_cast<std::uint32_t>(s));
  std::vector<std::uint32_t> syms = coded;
  for (std::size_t i = 0; i < extra; ++i)
    syms.push_back(coded[rng.below(coded.size())]);
  // Fisher–Yates with the test RNG (std::shuffle's URBG adaptation is
  // implementation-defined; this keeps the stream reproducible).
  for (std::size_t i = syms.size(); i > 1; --i)
    std::swap(syms[i - 1], syms[rng.below(i)]);
  return syms;
}

TEST(HuffmanDifferential, FlatMatchesWalkOnRandomDistributions) {
  Rng rng(0x4fa11);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t alphabet = 2 + rng.below(257);
    std::vector<std::uint64_t> freqs(alphabet);
    for (auto& f : freqs) f = rng.below(2) ? rng.below(10000) : 0;
    freqs[0] = 1 + freqs[0];  // at least one coded symbol pair
    freqs[alphabet - 1] = 1 + freqs[alphabet - 1];
    const int limit = rng.below(2) ? 15 : 20;
    const auto lengths = huffman::build_code_lengths(freqs, limit);
    check_huffman_both_orders(lengths, stream_covering(lengths, rng, 2000));
  }
}

TEST(HuffmanDifferential, MaxLengthCodesForceSubtables) {
  // Fibonacci-skewed frequencies drive the optimal tree far past the
  // length limit, so the fixup pins codes AT the limit — 15 and 20 both
  // exceed the 12-bit root table, exercising chained subtable links in
  // the flat decoder (and the link path in both bit orders).
  Rng rng(0x5ab1e);
  for (const int limit : {15, 20}) {
    std::vector<std::uint64_t> freqs(40);
    std::uint64_t a = 1, b = 1;
    for (auto& f : freqs) {
      f = a;
      const std::uint64_t next = a + b;
      a = b;
      b = next;
    }
    const auto lengths = huffman::build_code_lengths(freqs, limit);
    const int deepest =
        *std::max_element(lengths.begin(), lengths.end());
    ASSERT_EQ(deepest, limit) << "skew failed to reach the length limit";
    check_huffman_both_orders(lengths, stream_covering(lengths, rng, 3000));
  }
}

TEST(HuffmanDifferential, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(10);
  freqs[7] = 42;
  const auto lengths = huffman::build_code_lengths(freqs, 15);
  check_huffman_both_orders(lengths, std::vector<std::uint32_t>(64, 7));
}

// ---------------------------------------------------------------------------
// SA-IS BWT vs the prefix-doubling reference; packed inverse round trip.

void expect_bwt_identical(const Bytes& block, const std::string& what) {
  std::uint32_t p_sais = 0, p_ref = 0;
  const Bytes fast = compress::bwt_forward(block, p_sais);
  const Bytes ref = compress::bwt_forward_doubling(block, p_ref);
  ASSERT_EQ(fast, ref) << what;
  ASSERT_EQ(p_sais, p_ref) << what;
  ASSERT_EQ(compress::bwt_inverse(fast, p_sais), block) << what;
}

TEST(BwtDifferential, RandomBlocksMatchDoublingReference) {
  Rng rng(0xb3713);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = rng.below(20000);
    const int alphabet = 1 + static_cast<int>(rng.below(256));
    expect_bwt_identical(random_bytes(rng, n, alphabet),
                         "n=" + std::to_string(n));
  }
}

TEST(BwtDifferential, PeriodicBlocksMatchDoublingReference) {
  // Cyclically periodic blocks are where SA-IS needs the aperiodic-unit
  // expansion to reproduce the doubling sort's tie order exactly.
  Rng rng(0x9e10d);
  for (std::size_t unit = 1; unit <= 7; ++unit) {
    const Bytes pattern = random_bytes(rng, unit);
    for (const std::size_t reps : {2, 3, 64, 1000}) {
      Bytes block;
      for (std::size_t r = 0; r < reps; ++r)
        block.insert(block.end(), pattern.begin(), pattern.end());
      expect_bwt_identical(block, "unit=" + std::to_string(unit) +
                                      " reps=" + std::to_string(reps));
    }
  }
  expect_bwt_identical(Bytes(4096, 0x61), "all-same");
  expect_bwt_identical(Bytes{}, "empty");
  expect_bwt_identical(Bytes{0x7f}, "single");
}

TEST(BwtDifferential, EverySmallBinaryAndTernaryBlockMatchesReference) {
  // Exhaustive over short blocks, where every periodic shape, Lyndon
  // rotation and tie case occurs: each block over {0,1} up to 16 bytes
  // and over {0,1,2} up to 10 bytes.
  for (const auto& [alphabet, max_len] :
       {std::pair{2, 16}, std::pair{3, 10}}) {
    for (int n = 1; n <= max_len; ++n) {
      Bytes block(static_cast<std::size_t>(n), 0);
      while (true) {
        std::uint32_t p_sais = 0, p_ref = 0;
        const Bytes fast = compress::bwt_forward(block, p_sais);
        const Bytes ref = compress::bwt_forward_doubling(block, p_ref);
        if (fast != ref || p_sais != p_ref) {
          std::string digits;
          for (std::uint8_t b : block) digits += static_cast<char>('0' + b);
          FAIL() << "block " << digits << " differs from the reference "
                 << "(primary " << p_sais << " vs " << p_ref << ")";
        }
        // Next block in odometer order; done once every digit wraps.
        std::size_t i = 0;
        while (i < block.size() && ++block[i] == alphabet) block[i++] = 0;
        if (i == block.size()) break;
      }
    }
  }
}

TEST(BwtDifferential, CorpusMaterialMatchesDoublingReference) {
  for (const auto kind :
       {workload::FileKind::Xml, workload::FileKind::Binary}) {
    const Bytes block = workload::generate_kind(kind, 30000, 17, 0.3);
    expect_bwt_identical(block, workload::to_string(kind));
  }
}

TEST(BwtDifferential, InverseRoundTripStraddlesStrideCutoffs) {
  // bwt_inverse switches representation at n = 2^16 (packed local walk
  // below, stride-8 squared tables above) and peels n % 8 head bytes in
  // the strided walk; hit sizes on both sides of the cutoff and every
  // residue class.
  Rng rng(0x1c0ff);
  std::vector<std::size_t> sizes = {1, 2, 7, 8, 9, 15, 16, 17};
  for (std::size_t n = (1u << 16) - 9; n <= (1u << 16) + 9; ++n)
    sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const Bytes block = random_bytes(rng, n, 17);
    std::uint32_t primary = 0;
    const Bytes last = compress::bwt_forward(block, primary);
    ASSERT_EQ(compress::bwt_inverse(last, primary), block) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// MTF (dispatched rank scan) and whole-codec identity across tiers.

TEST_F(SimdDifferential, MtfIdenticalAtEveryLevelAndRoundTrips) {
  Rng rng(0x3174f);
  for (int iter = 0; iter < 10; ++iter) {
    const Bytes input = random_bytes(rng, 5000 + rng.below(5000),
                                     1 + static_cast<int>(rng.below(256)));
    simd::set_level(simd::Level::kScalar);
    const Bytes want = compress::mtf_encode(input);
    for (simd::Level level : supported_levels()) {
      simd::set_level(level);
      EXPECT_EQ(compress::mtf_encode(input), want)
          << "level " << simd::level_name(level);
      EXPECT_EQ(compress::mtf_decode(want), input)
          << "level " << simd::level_name(level);
    }
  }
}

TEST_F(SimdDifferential, CodecOutputByteIdenticalAcrossLevels) {
  const Bytes input =
      workload::generate_kind(workload::FileKind::Xml, 200000, 21, 0.2);
  for (const char* name : {"deflate", "lzw", "bwt"}) {
    const auto codec = compress::make_codec(name);
    simd::set_level(simd::Level::kScalar);
    const Bytes want = codec->compress(input);
    ASSERT_EQ(codec->decompress(want), input) << name;
    for (simd::Level level : supported_levels()) {
      simd::set_level(level);
      EXPECT_EQ(codec->compress(input), want)
          << name << " at " << simd::level_name(level);
      EXPECT_EQ(codec->decompress(want), input)
          << name << " at " << simd::level_name(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Encoder golden: every container byte pinned by size and CRC-32.

struct GoldenInput {
  std::string name;
  Bytes data;
};

/// Fixed inputs: every corpus kind at three sizes, the degenerate
/// shapes (empty, one byte, one repeated byte, short periodic units,
/// a Fibonacci word, random bytes), text running into random bytes
/// (the ratio check of both LZW encoders sees the factor fall and
/// emits CLEAR), and one input long enough for several BWT level-1
/// blocks and two selective blocks.
std::vector<GoldenInput> golden_inputs() {
  std::vector<GoldenInput> inputs;
  std::uint64_t seed = 1;
  for (int k = 0; k <= static_cast<int>(workload::FileKind::TarMixed); ++k) {
    const auto kind = static_cast<workload::FileKind>(k);
    for (const std::size_t size : {777u, 12345u, 70000u})
      inputs.push_back({std::string(workload::to_string(kind)) + "-" +
                            std::to_string(size),
                        workload::generate_kind(kind, size, seed++, 0.25)});
  }
  inputs.push_back({"empty", {}});
  inputs.push_back({"one-byte", Bytes{0x42}});
  inputs.push_back({"all-same", Bytes(5000, 0x61)});
  // 6300 is a multiple of every unit length 1..7; units 2..7 have no
  // runs for the run-length pre-pass to rewrite, so their BWT blocks
  // are cyclically periodic.
  const std::string units = "abcdefg";
  for (std::size_t unit = 1; unit <= units.size(); ++unit) {
    Bytes block;
    while (block.size() < 6300) block.push_back(units[block.size() % unit]);
    inputs.push_back({"periodic-" + std::to_string(unit), block});
  }
  {
    std::string a = "a", b = "ab";
    while (b.size() < 28657) {
      std::string next = b + a;
      a = std::move(b);
      b = std::move(next);
    }
    inputs.push_back({"fibonacci-28657", Bytes(b.begin(), b.end())});
  }
  Rng rng(0x90a1d);
  inputs.push_back({"random-40000", random_bytes(rng, 40000)});
  {
    Bytes mixed = workload::generate_kind(workload::FileKind::Xml, 40000,
                                          seed++, 0.25);
    const Bytes noise = random_bytes(rng, 40000);
    mixed.insert(mixed.end(), noise.begin(), noise.end());
    inputs.push_back({"xml-then-random-80000", mixed});
  }
  inputs.push_back(
      {"tar-250000", workload::generate_kind(workload::FileKind::TarMixed,
                                             250000, seed++, 0.25)});
  return inputs;
}

struct GoldenEncoder {
  std::string name;
  std::function<Bytes(ByteSpan)> encode;
};

std::vector<GoldenEncoder> golden_encoders() {
  std::vector<GoldenEncoder> encoders;
  for (int level = 1; level <= 9; ++level) {
    auto codec = std::make_shared<compress::DeflateCodec>(level);
    encoders.push_back({"deflate-" + std::to_string(level),
                        [codec](ByteSpan in) { return codec->compress(in); }});
  }
  encoders.push_back({"gzip", [](ByteSpan in) {
                        return compress::gzip_compress(in);
                      }});
  encoders.push_back({"zlib", [](ByteSpan in) {
                        return compress::zlib_compress(in);
                      }});
  const auto policy = std::make_shared<compress::SelectivePolicy>(
      core::make_selective_policy(core::EnergyModel::paper_11mbps()));
  for (const unsigned threads : {1u, 4u})
    encoders.push_back(
        {"selective-t" + std::to_string(threads),
         [policy, threads](ByteSpan in) {
           return compress::selective_compress(
                      in, *policy, compress::kDefaultBlockSize, 9, threads)
               .container;
         }});
  for (const int bits : {9, 12, 16}) {
    auto codec = std::make_shared<compress::LzwCodec>(bits);
    encoders.push_back({"lzw-" + std::to_string(bits),
                        [codec](ByteSpan in) { return codec->compress(in); }});
  }
  for (const int bits : {9, 16})
    encoders.push_back({"Z-" + std::to_string(bits), [bits](ByteSpan in) {
                          return compress::z_compress(in, bits);
                        }});
  for (const int level : {1, 5, 9})
    for (const int tables : {1, 6}) {
      auto codec = std::make_shared<compress::BwtCodec>(level, tables);
      encoders.push_back(
          {"bwt-" + std::to_string(level) + "-t" + std::to_string(tables),
           [codec](ByteSpan in) { return codec->compress(in); }});
    }
  encoders.push_back({"bz2", [](ByteSpan in) {
                        return compress::bz2_compress(in);
                      }});
  return encoders;
}

/// True if `block` equals a proper rotation of itself, i.e. bwt_forward
/// takes its periodic-unit path.
bool cyclically_periodic(const Bytes& block) {
  const std::size_t n = block.size();
  for (std::size_t q = 1; q < n; ++q) {
    if (n % q != 0) continue;
    if (std::equal(block.begin() + static_cast<std::ptrdiff_t>(q),
                   block.end(), block.begin()))
      return true;
  }
  return false;
}

TEST(CodecGolden, EveryContainerMatchesTheRecordedDigest) {
  namespace fs = std::filesystem;
  const auto inputs = golden_inputs();
  auto& resets = obs::Registry::global().counter("lzw.dict_resets");
  std::vector<std::string> got = {
      "# encoder/input container_size container_crc32"};
  std::vector<std::string> cleared;
  for (const auto& enc : golden_encoders()) {
    for (const auto& in : inputs) {
      const std::uint64_t resets_before = resets.value();
      const Bytes out = enc.encode(in.data);
      if (resets.value() > resets_before)
        cleared.push_back(enc.name + "/" + in.name);
      std::ostringstream os;
      os << enc.name << '/' << in.name << ' ' << out.size() << ' '
         << std::hex << crc32(out);
      got.push_back(os.str());
    }
  }

  // The set must reach the paths an encoder rewrite is most likely to
  // get wrong: an LZW CLEAR and a periodic BWT block.
  if constexpr (obs::kObsEnabled) {
    const auto any_of_prefix = [&](const std::string& prefix) {
      return std::any_of(cleared.begin(), cleared.end(),
                         [&](const std::string& s) {
                           return s.rfind(prefix, 0) == 0;
                         });
    };
    EXPECT_TRUE(any_of_prefix("lzw-")) << "no LZW input emitted CLEAR";
    EXPECT_TRUE(any_of_prefix("Z-")) << "no .Z input emitted CLEAR";
  }
  EXPECT_TRUE(std::any_of(inputs.begin(), inputs.end(), [](const auto& in) {
    const Bytes rle = compress::rle1_encode(in.data);
    return rle.size() > 1 && rle.size() <= 100000 && cyclically_periodic(rle);
  })) << "no input takes the periodic BWT path";

  const fs::path golden = fs::path(ECOMP_TEST_DATA_DIR) / "codec.golden";
  if (std::getenv("ECOMP_REGEN_GOLDEN")) {
    std::ofstream out(golden, std::ios::binary);
    for (const auto& line : got) out << line << '\n';
    ASSERT_TRUE(out.good()) << golden;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << golden << " missing; run with ECOMP_REGEN_GOLDEN=1 to create";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  ASSERT_EQ(got.size(), want.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (++mismatches <= 10)
      ADD_FAILURE() << "encoder output drifted from the golden\n  want: "
                    << want[i] << "\n   got: " << got[i];
  }
  EXPECT_EQ(mismatches, 0)
      << "every encoder must stay byte-identical; regenerate with "
         "ECOMP_REGEN_GOLDEN=1 only for an intended format change";
}

}  // namespace
}  // namespace ecomp
