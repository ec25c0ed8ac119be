#include "compress/bwt_codec.h"

#include <algorithm>

#include "compress/bwt.h"
#include "compress/container.h"
#include "compress/huffman.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/zone.h"
#include "util/bitio.h"
#include "util/crc32.h"

namespace ecomp::compress {
namespace {

constexpr int kMaxCodeLen = 20;
constexpr int kLenFieldBits = 5;   // serialized code-length width
constexpr std::size_t kGroupSize = 50;  // symbols per selector group
constexpr int kMaxTables = 6;
constexpr int kTableCountBits = 3;
constexpr int kRefinePasses = 3;

/// bzip2-style multi-table entropy coding: the symbol stream is cut into
/// groups of 50; each group is coded with one of up to six Huffman
/// tables, chosen per group (heterogeneous regions of the block get
/// specialized tables). Tables are refined by a few k-means-like passes.
int table_count_for(std::size_t n_syms) {
  // Roughly 40 selector groups per table before an extra table's header
  // pays for itself.
  const std::size_t groups = (n_syms + kGroupSize - 1) / kGroupSize;
  return std::clamp(static_cast<int>(groups / 40), 1, kMaxTables);
}

int selector_bits_for(int n_tables) {
  int bits = 0;
  while ((1 << bits) < n_tables) ++bits;
  return bits;
}

/// Code lengths over the block's in-use alphabet only: every used
/// symbol gets frequency >= 1 so any table can code any group, and
/// unused symbols get no code (and no header bits).
std::vector<std::uint8_t> lengths_for(const std::vector<std::uint64_t>& freqs,
                                      const std::vector<bool>& used) {
  std::vector<std::uint64_t> f = freqs;
  for (std::size_t s = 0; s < f.size(); ++s)
    if (used[s]) ++f[s];
  return huffman::build_code_lengths(f, kMaxCodeLen);
}

Bytes encode_block(ByteSpan block, int max_tables) {
  // Stage zones follow the pipeline: sort transform, MTF+ZRLE, then
  // everything from table seeding through emission as huffman.encode.
  std::uint32_t primary = 0;
  Bytes last;
  {
    ECOMP_PROF_ZONE("bwt.forward");
    last = bwt_forward(block, primary);
  }
  Bytes mtf;
  {
    ECOMP_PROF_ZONE("mtf");
    mtf = mtf_encode(last);
  }
  const auto syms = zrle_encode(mtf);
  ECOMP_PROF_ZONE("huffman.encode");

  const int n_tables = std::min(table_count_for(syms.size()), max_tables);
  const std::size_t n_groups = (syms.size() + kGroupSize - 1) / kGroupSize;

  std::vector<std::uint64_t> freq(kZrleAlphabet, 0);
  for (auto s : syms) ++freq[s];
  std::vector<bool> used(kZrleAlphabet, false);
  for (auto s : syms) used[s] = true;

  // Initial assignment: split the symbol stream's frequency mass into
  // contiguous alphabet ranges, one table per range (bzip2's seeding).
  std::vector<std::vector<std::uint8_t>> table_lengths(
      static_cast<std::size_t>(n_tables));
  {
    std::uint64_t total = syms.size();
    std::size_t lo = 0;
    for (int t = 0; t < n_tables; ++t) {
      const std::uint64_t want = total / static_cast<std::uint64_t>(
                                             n_tables - t);
      std::uint64_t got = 0;
      std::size_t hi = lo;
      while (hi < kZrleAlphabet && (got < want || hi == lo))
        got += freq[hi++];
      if (t == n_tables - 1) hi = kZrleAlphabet;
      // Seed table t to favour symbols in [lo, hi).
      std::vector<std::uint64_t> f(kZrleAlphabet, 0);
      for (std::size_t s = lo; s < hi; ++s) f[s] = freq[s];
      table_lengths[static_cast<std::size_t>(t)] = lengths_for(f, used);
      total -= got;
      lo = hi;
    }
  }

  // Refinement: assign each group to its cheapest table, then rebuild
  // each table from the groups it won.
  std::vector<std::uint8_t> selectors(n_groups, 0);
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    std::vector<std::vector<std::uint64_t>> table_freq(
        static_cast<std::size_t>(n_tables),
        std::vector<std::uint64_t>(kZrleAlphabet, 0));
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t begin = g * kGroupSize;
      const std::size_t end = std::min(begin + kGroupSize, syms.size());
      int best = 0;
      std::uint64_t best_cost = ~std::uint64_t{0};
      for (int t = 0; t < n_tables; ++t) {
        std::uint64_t cost = 0;
        for (std::size_t i = begin; i < end; ++i)
          cost += table_lengths[static_cast<std::size_t>(t)][syms[i]];
        if (cost < best_cost) {
          best_cost = cost;
          best = t;
        }
      }
      selectors[g] = static_cast<std::uint8_t>(best);
      for (std::size_t i = begin; i < end; ++i)
        ++table_freq[static_cast<std::size_t>(best)][syms[i]];
    }
    for (int t = 0; t < n_tables; ++t)
      table_lengths[static_cast<std::size_t>(t)] =
          lengths_for(table_freq[static_cast<std::size_t>(t)], used);
  }

  BitWriterMsb bw;
  bw.put(static_cast<std::uint32_t>(n_tables), kTableCountBits);
  // Usage bitmap once per block; table headers cover used symbols only.
  for (std::size_t s = 0; s < kZrleAlphabet; ++s)
    bw.put(used[s] ? 1 : 0, 1);
  for (const auto& lengths : table_lengths)
    for (std::size_t s = 0; s < kZrleAlphabet; ++s)
      if (used[s]) bw.put(lengths[s], kLenFieldBits);
  std::vector<huffman::EncoderMsb> encoders;
  encoders.reserve(table_lengths.size());
  for (const auto& lengths : table_lengths) encoders.emplace_back(lengths);

  const int sel_bits = selector_bits_for(n_tables);
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (sel_bits) bw.put(selectors[g], sel_bits);
    const auto& enc = encoders[selectors[g]];
    const std::size_t begin = g * kGroupSize;
    const std::size_t end = std::min(begin + kGroupSize, syms.size());
    for (std::size_t i = begin; i < end; ++i) enc.encode(bw, syms[i]);
  }
  Bytes payload = bw.take();

  Bytes out;
  put_varint(out, block.size());
  put_varint(out, primary);
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Bytes decode_block(ByteSpan in, std::size_t& pos) {
  const std::uint64_t block_size = get_varint(in, pos);
  if (block_size > kMaxBwtBlock) throw Error("bwt: block size too large");
  const std::uint64_t primary = get_varint(in, pos);
  const std::uint64_t payload_size = get_varint(in, pos);
  if (pos + payload_size > in.size()) throw Error("bwt: truncated block");
  BitReaderMsb br(in.subspan(pos, payload_size));
  pos += payload_size;

  const int n_tables = static_cast<int>(br.get(kTableCountBits));
  if (n_tables < 1 || n_tables > kMaxTables)
    throw Error("bwt: bad table count");
  std::vector<bool> used(kZrleAlphabet, false);
  for (std::size_t s = 0; s < kZrleAlphabet; ++s) used[s] = br.get(1) != 0;
  std::vector<huffman::DecoderMsb> decoders;
  decoders.reserve(static_cast<std::size_t>(n_tables));
  for (int t = 0; t < n_tables; ++t) {
    std::vector<std::uint8_t> lengths(kZrleAlphabet, 0);
    for (std::size_t s = 0; s < kZrleAlphabet; ++s)
      if (used[s])
        lengths[s] = static_cast<std::uint8_t>(br.get(kLenFieldBits));
    decoders.emplace_back(lengths);
  }
  const int sel_bits = selector_bits_for(n_tables);

  std::vector<std::uint16_t> syms;
  syms.reserve(block_size / 2 + 16);
  {
    ECOMP_PROF_ZONE("huffman.decode");
    bool done = false;
    while (!done) {
      std::uint32_t sel = sel_bits ? br.get(sel_bits) : 0;
      if (sel >= static_cast<std::uint32_t>(n_tables))
        throw Error("bwt: bad selector");
      const auto& dec = decoders[sel];
      for (std::size_t i = 0; i < kGroupSize; ++i) {
        const std::uint32_t s = dec.decode(br);
        syms.push_back(static_cast<std::uint16_t>(s));
        if (s == kZrleEob) {
          done = true;
          break;
        }
      }
    }
  }
  Bytes mtf, last;
  {
    ECOMP_PROF_ZONE("mtf");
    mtf = zrle_decode(syms, static_cast<std::size_t>(block_size));
    last = mtf_decode(mtf);
  }
  if (last.size() != block_size) throw Error("bwt: block size mismatch");
  ECOMP_PROF_ZONE("bwt.inverse");
  return bwt_inverse(last, static_cast<std::uint32_t>(primary));
}

}  // namespace

BwtCodec::BwtCodec(int level, int max_tables)
    : block_size_(static_cast<std::size_t>(std::clamp(level, 1, 9)) *
                  100'000),
      max_tables_(std::clamp(max_tables, 1, kMaxTables)) {}

Bytes BwtCodec::compress(ByteSpan input) const {
  ECOMP_TRACE_SPAN("bwt.compress", "codec");
  ECOMP_COUNT_N("bwt.bytes_in", input.size());
  Bytes out;
  std::uint32_t crc;
  {
    ECOMP_PROF_ZONE("crc32");
    crc = crc32(input);
  }
  write_header(out, kBwtMagic, input.size(), crc);
  const Bytes rle = rle1_encode(input);
  put_varint(out, rle.size());

  std::size_t off = 0;
  std::size_t nblocks = 0;
  while (off < rle.size()) {
    const std::size_t len = std::min(block_size_, rle.size() - off);
    ++nblocks;
    off += len;
  }
  put_varint(out, nblocks);
  off = 0;
  while (off < rle.size()) {
    const std::size_t len = std::min(block_size_, rle.size() - off);
    const Bytes blk =
        encode_block(ByteSpan(rle).subspan(off, len), max_tables_);
    out.insert(out.end(), blk.begin(), blk.end());
    off += len;
  }
  ECOMP_COUNT_N("bwt.bytes_out", out.size());
  return out;
}

Bytes BwtCodec::decompress(ByteSpan input) const {
  ECOMP_TRACE_SPAN("bwt.decompress", "codec");
  const Header h = read_header(input, kBwtMagic);
  std::size_t pos = h.payload_offset;
  const std::uint64_t rle_size = get_varint(input, pos);
  const std::uint64_t nblocks = get_varint(input, pos);
  Bytes rle;
  rle.reserve(reserve_hint(rle_size, input.size() - pos));
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const Bytes blk = decode_block(input, pos);
    rle.insert(rle.end(), blk.begin(), blk.end());
  }
  if (rle.size() != rle_size) throw Error("bwt: stream size mismatch");
  Bytes out = rle1_decode(rle);
  {
    ECOMP_PROF_ZONE("crc32");
    check_crc(h, out);
  }
  return out;
}

}  // namespace ecomp::compress
