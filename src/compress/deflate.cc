#include "compress/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "compress/container.h"
#include "compress/huffman.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/zone.h"
#include "util/crc32.h"

namespace ecomp::compress {
namespace {

// ------------------------------------------------------------ RFC 1951 data

constexpr int kNumLitLen = 288;   // literal/length alphabet (285 used)
constexpr int kNumDist = 30;      // distance alphabet
constexpr int kNumClen = 19;      // code-length alphabet
constexpr int kMaxCodeLen = 15;
constexpr int kMaxClenLen = 7;
constexpr int kEndOfBlock = 256;

// Length codes 257..285: base length and number of extra bits.
struct LenCode {
  std::uint16_t base;
  std::uint8_t extra;
};
constexpr std::array<LenCode, 29> kLenCodes = {{
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},
    {9, 0},   {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 1},
    {19, 2},  {23, 2},  {27, 2},  {31, 2},  {35, 3},  {43, 3},
    {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}};

constexpr std::array<LenCode, 30> kDistCodes = {{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},
    {7, 1},     {9, 2},     {13, 2},    {17, 3},    {25, 3},
    {33, 4},    {49, 4},    {65, 5},    {97, 5},    {129, 6},
    {193, 6},   {257, 7},   {385, 7},   {513, 8},   {769, 8},
    {1025, 9},  {1537, 9},  {2049, 10}, {3073, 10}, {4097, 11},
    {6145, 11}, {8193, 12}, {12289, 12},{16385, 13},{24577, 13},
}};

constexpr std::array<std::uint8_t, kNumClen> kClenOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

/// Index of the last code whose base is <= v (codes ascend by base).
template <std::size_t N>
constexpr int code_for(const std::array<LenCode, N>& codes, int v) {
  int i = static_cast<int>(N) - 1;
  while (i > 0 && v < codes[static_cast<std::size_t>(i)].base) --i;
  return i;
}

/// Length code index of every match length 0..258 (zlib's _length_code).
constexpr auto kLengthCodeOf = [] {
  std::array<std::uint8_t, kLzMaxMatch + 1> t{};
  for (int len = kLzMinMatch; len <= kLzMaxMatch; ++len)
    t[static_cast<std::size_t>(len)] =
        static_cast<std::uint8_t>(code_for(kLenCodes, len));
  return t;
}();

/// Distance code by d = distance - 1 (zlib's _dist_code): entries
/// 0..255 for d < 256, then 256 + (d >> 7), since from code 16 on every
/// code spans a multiple of 128 distances starting at one.
constexpr auto kDistanceCodeOf = [] {
  std::array<std::uint8_t, 512> t{};
  for (int d = 0; d < 256; ++d)
    t[static_cast<std::size_t>(d)] =
        static_cast<std::uint8_t>(code_for(kDistCodes, d + 1));
  for (int d = 256; d < 32768; d += 128)
    t[static_cast<std::size_t>(256 + (d >> 7))] =
        static_cast<std::uint8_t>(code_for(kDistCodes, d + 1));
  return t;
}();

/// Map a match length (3..258) to its length code index (0..28).
int length_code(int len) {
  if (len < kLzMinMatch) throw Error("deflate: bad match length");
  return len > kLzMaxMatch ? 28 : kLengthCodeOf[static_cast<std::size_t>(len)];
}

/// Map a distance (1..32768) to its distance code (0..29).
int distance_code(int dist) {
  if (dist < 1) throw Error("deflate: bad distance");
  if (dist > kLzWindowSize) return 29;
  const int d = dist - 1;
  return kDistanceCodeOf[static_cast<std::size_t>(d < 256 ? d : 256 + (d >> 7))];
}

std::vector<std::uint8_t> fixed_litlen_lengths() {
  std::vector<std::uint8_t> l(kNumLitLen);
  for (int i = 0; i <= 143; ++i) l[i] = 8;
  for (int i = 144; i <= 255; ++i) l[i] = 9;
  for (int i = 256; i <= 279; ++i) l[i] = 7;
  for (int i = 280; i <= 287; ++i) l[i] = 8;
  return l;
}

std::vector<std::uint8_t> fixed_dist_lengths() {
  return std::vector<std::uint8_t>(kNumDist, 5);
}

// --------------------------------------------------------------- compressor

struct BlockPlan {
  std::vector<std::uint64_t> lit_freq =
      std::vector<std::uint64_t>(kNumLitLen, 0);
  std::vector<std::uint64_t> dist_freq =
      std::vector<std::uint64_t>(kNumDist, 0);
};

BlockPlan census(const std::vector<Lz77Token>& tokens, std::size_t begin,
                 std::size_t end) {
  BlockPlan p;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& t = tokens[i];
    if (t.length == 0) {
      ++p.lit_freq[t.literal];
    } else {
      ++p.lit_freq[257 + length_code(t.length)];
      ++p.dist_freq[distance_code(t.distance)];
    }
  }
  ++p.lit_freq[kEndOfBlock];
  return p;
}

/// Cost in bits of coding the block body with the given code lengths.
std::uint64_t body_cost(const BlockPlan& p,
                        const std::vector<std::uint8_t>& lit_len,
                        const std::vector<std::uint8_t>& dist_len) {
  std::uint64_t bits = 0;
  for (int s = 0; s < kNumLitLen; ++s) {
    if (!p.lit_freq[s]) continue;
    std::uint64_t extra = 0;
    if (s > kEndOfBlock) extra = kLenCodes[s - 257].extra;
    bits += p.lit_freq[s] * (lit_len[s] + extra);
  }
  for (int s = 0; s < kNumDist; ++s) {
    if (!p.dist_freq[s]) continue;
    bits += p.dist_freq[s] * (dist_len[s] + kDistCodes[s].extra);
  }
  return bits;
}

/// RLE of code lengths into the 0..18 alphabet (16: repeat prev 3-6;
/// 17: zeros 3-10; 18: zeros 11-138). Returns (symbol, extra) pairs.
struct ClenItem {
  std::uint8_t sym;
  std::uint8_t extra_val;
};
std::vector<ClenItem> rle_code_lengths(
    const std::vector<std::uint8_t>& lengths) {
  std::vector<ClenItem> out;
  std::size_t i = 0;
  while (i < lengths.size()) {
    const std::uint8_t v = lengths[i];
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == v) ++run;
    if (v == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out.push_back({18, static_cast<std::uint8_t>(take - 11)});
        left -= take;
      }
      if (left >= 3) {
        out.push_back({17, static_cast<std::uint8_t>(left - 3)});
        left = 0;
      }
      while (left--) out.push_back({0, 0});
    } else {
      out.push_back({v, 0});
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out.push_back({16, static_cast<std::uint8_t>(take - 3)});
        left -= take;
      }
      while (left--) out.push_back({v, 0});
    }
    i += run;
  }
  return out;
}

int clen_extra_bits(int sym) {
  if (sym == 16) return 2;
  if (sym == 17) return 3;
  if (sym == 18) return 7;
  return 0;
}

void emit_tokens(BitWriterLsb& out, const std::vector<Lz77Token>& tokens,
                 std::size_t begin, std::size_t end,
                 const huffman::EncoderLsb& lit_enc,
                 const huffman::EncoderLsb& dist_enc) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto& t = tokens[i];
    if (t.length == 0) {
      lit_enc.encode(out, t.literal);
    } else {
      const int lc = length_code(t.length);
      lit_enc.encode(out, static_cast<std::uint32_t>(257 + lc));
      if (kLenCodes[lc].extra)
        out.put(static_cast<std::uint32_t>(t.length - kLenCodes[lc].base),
                kLenCodes[lc].extra);
      const int dc = distance_code(t.distance);
      dist_enc.encode(out, static_cast<std::uint32_t>(dc));
      if (kDistCodes[dc].extra)
        out.put(static_cast<std::uint32_t>(t.distance - kDistCodes[dc].base),
                kDistCodes[dc].extra);
    }
  }
  lit_enc.encode(out, kEndOfBlock);
}

/// Emit one compressed block choosing stored / fixed / dynamic by cost.
/// `raw` spans the original bytes covered by tokens[begin, end).
void emit_block(BitWriterLsb& out, ByteSpan raw,
                const std::vector<Lz77Token>& tokens, std::size_t begin,
                std::size_t end, bool final) {
  // One zone per block: census, tree builds, and token emission all
  // attribute to huffman.encode (lz77.match already ended upstream).
  ECOMP_PROF_ZONE("huffman.encode");
  const BlockPlan plan = census(tokens, begin, end);

  auto dyn_lit = huffman::build_code_lengths(plan.lit_freq, kMaxCodeLen);
  auto dyn_dist = huffman::build_code_lengths(plan.dist_freq, kMaxCodeLen);
  // RFC 1951 requires HDIST >= 1; if no distances used, give code 0 a
  // 1-bit dummy code.
  if (std::all_of(dyn_dist.begin(), dyn_dist.end(),
                  [](std::uint8_t l) { return l == 0; }))
    dyn_dist[0] = 1;

  // Sizes of the three encodings.
  const auto fixed_lit = fixed_litlen_lengths();
  const auto fixed_dist = fixed_dist_lengths();
  const std::uint64_t fixed_bits = 3 + body_cost(plan, fixed_lit, fixed_dist);

  int hlit = kNumLitLen;
  while (hlit > 257 && dyn_lit[hlit - 1] == 0) --hlit;
  int hdist = kNumDist;
  while (hdist > 1 && dyn_dist[hdist - 1] == 0) --hdist;
  std::vector<std::uint8_t> all_lengths(dyn_lit.begin(),
                                        dyn_lit.begin() + hlit);
  all_lengths.insert(all_lengths.end(), dyn_dist.begin(),
                     dyn_dist.begin() + hdist);
  const auto clen_items = rle_code_lengths(all_lengths);
  std::vector<std::uint64_t> clen_freq(kNumClen, 0);
  for (const auto& it : clen_items) ++clen_freq[it.sym];
  auto clen_lengths = huffman::build_code_lengths(clen_freq, kMaxClenLen);
  int hclen = kNumClen;
  while (hclen > 4 && clen_lengths[kClenOrder[hclen - 1]] == 0) --hclen;

  std::uint64_t dyn_header_bits = 3 + 5 + 5 + 4 + 3ull * hclen;
  for (const auto& it : clen_items)
    dyn_header_bits += clen_lengths[it.sym] + clen_extra_bits(it.sym);
  const std::uint64_t dyn_bits =
      dyn_header_bits + body_cost(plan, dyn_lit, dyn_dist);

  // Stored cost: align + BTYPE bits + LEN/NLEN + raw bytes.
  const std::uint64_t stored_bits =
      3 + ((8 - ((out.bit_count() + 3) % 8)) % 8) + 32 + 8ull * raw.size();
  const bool storable = raw.size() <= 0xffff;

  if (storable && stored_bits <= dyn_bits && stored_bits <= fixed_bits) {
    out.put(final ? 1 : 0, 1);
    out.put(0, 2);  // BTYPE=00
    out.align_to_byte();
    out.put(static_cast<std::uint32_t>(raw.size()), 16);
    out.put(static_cast<std::uint32_t>(~raw.size() & 0xffff), 16);
    for (std::uint8_t b : raw) out.put_aligned_byte(b);
    return;
  }

  if (fixed_bits <= dyn_bits) {
    out.put(final ? 1 : 0, 1);
    out.put(1, 2);  // BTYPE=01
    huffman::EncoderLsb lit_enc(fixed_lit), dist_enc(fixed_dist);
    emit_tokens(out, tokens, begin, end, lit_enc, dist_enc);
    return;
  }

  out.put(final ? 1 : 0, 1);
  out.put(2, 2);  // BTYPE=10
  out.put(static_cast<std::uint32_t>(hlit - 257), 5);
  out.put(static_cast<std::uint32_t>(hdist - 1), 5);
  out.put(static_cast<std::uint32_t>(hclen - 4), 4);
  for (int i = 0; i < hclen; ++i)
    out.put(clen_lengths[kClenOrder[i]], 3);
  huffman::EncoderLsb clen_enc(clen_lengths);
  for (const auto& it : clen_items) {
    clen_enc.encode(out, it.sym);
    const int eb = clen_extra_bits(it.sym);
    if (eb) out.put(it.extra_val, eb);
  }
  huffman::EncoderLsb lit_enc(dyn_lit), dist_enc(dyn_dist);
  emit_tokens(out, tokens, begin, end, lit_enc, dist_enc);
}

constexpr std::size_t kMaxBlockTokens = 48 * 1024;

}  // namespace

void deflate_raw(ByteSpan input, const Lz77Params& params,
                 BitWriterLsb& out) {
  ECOMP_TRACE_SPAN("deflate.raw", "codec");
  ECOMP_COUNT_N("deflate.bytes_in", input.size());
  const std::uint64_t bits_before = out.bit_count();
  if (input.empty()) {
    // Single empty stored block.
    out.put(1, 1);
    out.put(0, 2);
    out.align_to_byte();
    out.put(0, 16);
    out.put(0xffff, 16);
    ECOMP_COUNT_N("deflate.bytes_out", (out.bit_count() - bits_before + 7) / 8);
    return;
  }
  const auto tokens = lz77_tokenize(input, params);

  // Split into blocks of at most kMaxBlockTokens tokens; track the raw
  // byte range each covers so stored blocks are possible.
  std::size_t tok_begin = 0;
  std::size_t raw_begin = 0;
  while (tok_begin < tokens.size()) {
    std::size_t tok_end =
        std::min(tokens.size(), tok_begin + kMaxBlockTokens);
    std::size_t raw_end = raw_begin;
    for (std::size_t i = tok_begin; i < tok_end; ++i)
      raw_end += tokens[i].length == 0 ? 1 : tokens[i].length;
    // Stored blocks cap at 64 KB of raw data; if this block is larger it
    // simply won't take the stored path (storable == false).
    const bool final = tok_end == tokens.size();
    emit_block(out, input.subspan(raw_begin, raw_end - raw_begin), tokens,
               tok_begin, tok_end, final);
    tok_begin = tok_end;
    raw_begin = raw_end;
    ECOMP_COUNT("deflate.blocks");
  }
  ECOMP_COUNT_N("deflate.bytes_out", (out.bit_count() - bits_before + 7) / 8);
}

Bytes inflate_raw(BitReaderLsb& in, std::size_t size_hint) {
  ECOMP_TRACE_SPAN("inflate.raw", "codec");
  Bytes out;
  out.reserve(size_hint);
  const auto fixed_lit = fixed_litlen_lengths();
  const auto fixed_dist = fixed_dist_lengths();

  bool final = false;
  while (!final) {
    ECOMP_PROF_ZONE("huffman.decode");
    final = in.get(1) != 0;
    const std::uint32_t btype = in.get(2);
    if (btype == 0) {
      in.align_to_byte();
      const std::uint32_t len = in.get(16);
      const std::uint32_t nlen = in.get(16);
      if ((len ^ nlen) != 0xffff) throw Error("inflate: bad stored header");
      for (std::uint32_t i = 0; i < len; ++i)
        out.push_back(in.get_aligned_byte());
      continue;
    }
    if (btype == 3) throw Error("inflate: reserved block type");

    std::unique_ptr<huffman::DecoderLsb> lit_dec, dist_dec;
    if (btype == 1) {
      lit_dec = std::make_unique<huffman::DecoderLsb>(fixed_lit);
      dist_dec = std::make_unique<huffman::DecoderLsb>(fixed_dist);
    } else {
      const int hlit = static_cast<int>(in.get(5)) + 257;
      const int hdist = static_cast<int>(in.get(5)) + 1;
      const int hclen = static_cast<int>(in.get(4)) + 4;
      if (hlit > kNumLitLen || hdist > kNumDist)
        throw Error("inflate: bad HLIT/HDIST");
      std::vector<std::uint8_t> clen_lengths(kNumClen, 0);
      for (int i = 0; i < hclen; ++i)
        clen_lengths[kClenOrder[i]] =
            static_cast<std::uint8_t>(in.get(3));
      huffman::DecoderLsb clen_dec(clen_lengths);
      std::vector<std::uint8_t> all(hlit + hdist, 0);
      std::size_t i = 0;
      while (i < all.size()) {
        const std::uint32_t sym = clen_dec.decode(in);
        if (sym < 16) {
          all[i++] = static_cast<std::uint8_t>(sym);
        } else if (sym == 16) {
          if (i == 0) throw Error("inflate: repeat with no previous length");
          const std::uint32_t n = 3 + in.get(2);
          if (i + n > all.size()) throw Error("inflate: repeat overflow");
          for (std::uint32_t k = 0; k < n; ++k, ++i) all[i] = all[i - 1];
        } else if (sym == 17) {
          const std::uint32_t n = 3 + in.get(3);
          if (i + n > all.size()) throw Error("inflate: zero-run overflow");
          i += n;
        } else {
          const std::uint32_t n = 11 + in.get(7);
          if (i + n > all.size()) throw Error("inflate: zero-run overflow");
          i += n;
        }
      }
      std::vector<std::uint8_t> lit(all.begin(), all.begin() + hlit);
      lit.resize(kNumLitLen, 0);
      std::vector<std::uint8_t> dist(all.begin() + hlit, all.end());
      dist.resize(kNumDist, 0);
      lit_dec = std::make_unique<huffman::DecoderLsb>(lit);
      dist_dec = std::make_unique<huffman::DecoderLsb>(dist);
    }

    while (true) {
      const std::uint32_t sym = lit_dec->decode(in);
      if (sym < 256) {
        out.push_back(static_cast<std::uint8_t>(sym));
        continue;
      }
      if (sym == kEndOfBlock) break;
      if (sym > 285) throw Error("inflate: bad length symbol");
      const LenCode& lc = kLenCodes[sym - 257];
      const int len =
          lc.base + static_cast<int>(lc.extra ? in.get(lc.extra) : 0);
      const std::uint32_t dsym = dist_dec->decode(in);
      if (dsym >= kNumDist) throw Error("inflate: bad distance symbol");
      const LenCode& dc = kDistCodes[dsym];
      const std::size_t dist =
          dc.base + static_cast<std::size_t>(dc.extra ? in.get(dc.extra) : 0);
      if (dist == 0 || dist > out.size())
        throw Error("inflate: distance beyond output");
      // Same overlap-safe bulk copy as lz77_reconstruct: straight memcpy
      // when source and destination are disjoint, period-multiple strides
      // for overlapping repeats, byte loop for short RLE-like periods.
      const std::size_t n = static_cast<std::size_t>(len);
      const std::size_t start = out.size();
      out.resize(start + n);
      std::uint8_t* dst = out.data() + start;
      const std::uint8_t* src = dst - dist;
      if (dist >= n) {
        std::memcpy(dst, src, n);
      } else if (dist >= 8) {
        std::size_t w = 0;
        while (w < n) {
          const std::size_t stride = ((w + dist) / dist) * dist;
          const std::size_t c = std::min(stride, n - w);
          std::memcpy(dst + w, dst + w - stride, c);
          w += c;
        }
      } else {
        for (std::size_t k = 0; k < n; ++k) dst[k] = src[k];
      }
    }
  }
  return out;
}

Bytes DeflateCodec::compress(ByteSpan input) const {
  ECOMP_TRACE_SPAN("deflate.compress", "codec");
  ECOMP_SLIDING_TIMER("deflate.compress_us");
  Bytes out;
  std::uint32_t crc;
  {
    ECOMP_PROF_ZONE("crc32");
    crc = crc32(input);
  }
  write_header(out, kDeflateMagic, input.size(), crc);
  BitWriterLsb bw;
  deflate_raw(input, params_, bw);
  Bytes payload = bw.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Bytes DeflateCodec::decompress(ByteSpan input) const {
  ECOMP_TRACE_SPAN("deflate.decompress", "codec");
  ECOMP_SLIDING_TIMER("deflate.decompress_us");
  const Header h = read_header(input, kDeflateMagic);
  const ByteSpan payload = input.subspan(h.payload_offset);
  BitReaderLsb br(payload);
  Bytes out = inflate_raw(br, reserve_hint(h.original_size, payload.size()));
  {
    ECOMP_PROF_ZONE("crc32");
    check_crc(h, out);
  }
  return out;
}

}  // namespace ecomp::compress
