#include "compress/z_format.h"

#include <algorithm>
#include <vector>

#include "compress/lzw_dict.h"
#include "obs/metrics.h"

namespace ecomp::compress {
namespace {

constexpr std::uint8_t kMagic1 = 0x1f;
constexpr std::uint8_t kMagic2 = 0x9d;
constexpr std::uint8_t kBlockModeFlag = 0x80;
constexpr int kInitBits = 9;
constexpr std::uint32_t kClear = 256;
constexpr std::uint32_t kFirst = 257;
constexpr std::uint64_t kRatioCheckGap = 10000;

/// LSB-first bit sink with group-aligned padding (the .Z quirk).
class ZBitWriter {
 public:
  void put(std::uint32_t code, int bits) {
    acc_ |= static_cast<std::uint64_t>(code) << fill_;
    fill_ += bits;
    pos_bits_ += static_cast<std::uint64_t>(bits);
    while (fill_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xff));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }

  /// Pad with zero bits so that (pos - origin) is a multiple of
  /// n_bits*8, then mark a new group origin.
  void align_group(int n_bits) {
    const std::uint64_t group = static_cast<std::uint64_t>(n_bits) * 8;
    const std::uint64_t used = pos_bits_ - origin_bits_;
    const std::uint64_t rem = used % group;
    if (rem != 0) {
      std::uint64_t pad = group - rem;
      while (pad > 0) {
        const int chunk = pad > 32 ? 32 : static_cast<int>(pad);
        put(0, chunk);
        pad -= static_cast<std::uint64_t>(chunk);
      }
    }
    origin_bits_ = pos_bits_;
  }

  Bytes take() {
    while (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xff));
      acc_ >>= 8;
      fill_ = fill_ > 8 ? fill_ - 8 : 0;
    }
    return std::move(out_);
  }

  std::uint64_t bits_written() const { return pos_bits_; }

 private:
  Bytes out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
  std::uint64_t pos_bits_ = 0;
  std::uint64_t origin_bits_ = 0;
};

/// LSB-first bit source with the same group-aligned skipping.
class ZBitReader {
 public:
  explicit ZBitReader(ByteSpan data) : data_(data) {}

  /// Read `bits`; returns false at end of stream (fewer bits left).
  bool get(int bits, std::uint32_t& code) {
    if (pos_bits_ + static_cast<std::uint64_t>(bits) >
        static_cast<std::uint64_t>(data_.size()) * 8)
      return false;
    std::uint64_t v = 0;
    for (int i = 0; i < bits; ++i) {
      const std::uint64_t bit_index = pos_bits_ + static_cast<std::uint64_t>(i);
      const std::uint8_t byte = data_[bit_index >> 3];
      v |= static_cast<std::uint64_t>((byte >> (bit_index & 7)) & 1) << i;
    }
    pos_bits_ += static_cast<std::uint64_t>(bits);
    code = static_cast<std::uint32_t>(v);
    return true;
  }

  void align_group(int n_bits) {
    const std::uint64_t group = static_cast<std::uint64_t>(n_bits) * 8;
    const std::uint64_t used = pos_bits_ - origin_bits_;
    const std::uint64_t rem = used % group;
    if (rem != 0) pos_bits_ += group - rem;
    origin_bits_ = pos_bits_;
  }

 private:
  ByteSpan data_;
  std::uint64_t pos_bits_ = 0;
  std::uint64_t origin_bits_ = 0;
};

}  // namespace

bool looks_like_z(ByteSpan data) {
  return data.size() >= 2 && data[0] == kMagic1 && data[1] == kMagic2;
}

/// Shadow of the historical decoder's width/slot state machine (gzip's
/// unlzw.c). The encoder advances this shadow once per emitted code,
/// exactly as the decoder will per read, and emits at the shadow's
/// current width — bit-level agreement by construction, including the
/// quirks (slot 256 burned after CLEAR; width growing past max_bits
/// when the cap is 9).
struct UnlzwShadow {
  int max_bits;
  std::uint32_t maxmaxcode;
  int n_bits = kInitBits;
  std::uint32_t maxcode = (1u << kInitBits) - 1;
  std::uint32_t free_ent;
  bool first = true;

  explicit UnlzwShadow(int mb)
      : max_bits(mb), maxmaxcode(1u << mb), free_ent(kFirst) {}

  /// Decoder's pre-read check; pads the writer when the decoder skips.
  void pre_read(ZBitWriter& bw) {
    if (free_ent > maxcode) {
      bw.align_group(n_bits);
      ++n_bits;
      maxcode =
          n_bits == max_bits ? maxmaxcode : (1u << n_bits) - 1;
    }
  }

  /// Decoder's post-read bookkeeping for code `c`.
  void post_read(ZBitWriter& bw, std::uint32_t c) {
    if (first) {
      first = false;  // oldcode==-1 path: no table add
      return;
    }
    if (c == kClear) {
      bw.align_group(n_bits);
      n_bits = kInitBits;
      maxcode = (1u << n_bits) - 1;
      free_ent = kFirst - 1;  // slot 256 burns on the next add
      return;
    }
    if (free_ent < maxmaxcode) ++free_ent;
  }
};

Bytes z_compress(ByteSpan input, int max_bits) {
  if (max_bits < kInitBits || max_bits > 16)
    throw Error("z: max_bits must be in [9,16]");
  Bytes out = {kMagic1, kMagic2,
               static_cast<std::uint8_t>(max_bits | kBlockModeFlag)};
  if (input.empty()) return out;

  const std::uint32_t maxmaxcode = 1u << max_bits;
  ZBitWriter bw;
  UnlzwShadow shadow(max_bits);
  // Slots kFirst..maxmaxcode-1, and at most one insert per input byte.
  LzwDict table(std::min<std::size_t>(maxmaxcode - kFirst, input.size()));

  auto emit = [&](std::uint32_t code) {
    shadow.pre_read(bw);
    bw.put(code, shadow.n_bits);
    shadow.post_read(bw, code);
  };

  std::uint32_t ent = input[0];
  std::uint64_t in_count = 1;
  std::uint64_t next_check = kRatioCheckGap;
  double best_ratio = 0.0;
  bool table_full = false;

  for (std::size_t i = 1; i < input.size(); ++i) {
    const std::uint8_t c = input[i];
    ++in_count;
    const std::uint32_t code = table.find(ent, c);
    if (code != LzwDict::kMissing) {
      ent = code;
      continue;
    }
    emit(ent);
    if (!table_full) {
      // Our new entry lands in the decoder at its NEXT read, taking the
      // slot the shadow currently points at.
      if (shadow.free_ent < maxmaxcode) {
        table.insert(ent, c, shadow.free_ent);
      } else {
        table_full = true;
      }
    } else if (in_count >= next_check) {
      next_check = in_count + kRatioCheckGap;
      const double ratio = static_cast<double>(in_count) /
                           (static_cast<double>(bw.bits_written()) / 8 + 1);
      if (ratio > best_ratio) {
        best_ratio = ratio;
      } else {
        ECOMP_COUNT("lzw.dict_resets");
        emit(kClear);
        table.clear();
        table_full = false;
        best_ratio = 0.0;
      }
    }
    ent = c;
  }
  emit(ent);

  const Bytes payload = bw.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Bytes z_decompress(ByteSpan input) {
  if (!looks_like_z(input)) throw Error("z: bad magic");
  if (input.size() < 3) throw Error("z: truncated header");
  const std::uint8_t flags = input[2];
  const int max_bits = flags & 0x1f;
  const bool block_mode = (flags & kBlockModeFlag) != 0;
  if (max_bits < kInitBits || max_bits > 16)
    throw Error("z: unsupported max_bits");
  const std::uint32_t maxmaxcode = 1u << max_bits;

  ZBitReader br(input.subspan(3));
  // prefix/suffix tables, historical layout.
  std::vector<std::uint32_t> prefix(maxmaxcode, 0);
  std::vector<std::uint8_t> suffix(maxmaxcode, 0);

  int n_bits = kInitBits;
  // Mirrors gzip's unlzw exactly, including its quirk: maxcode starts
  // at 2^9-1 unconditionally, so with max_bits = 9 the width still
  // grows to 10 bits once the table fills (codes 512..1023 unused).
  std::uint32_t maxcode = (1u << n_bits) - 1;
  std::uint32_t free_ent = block_mode ? kFirst : 256;

  Bytes out;
  Bytes stack;
  std::int64_t oldcode = -1;
  std::uint8_t finchar = 0;

  std::uint32_t code = 0;
  while (true) {
    if (free_ent > maxcode) {
      br.align_group(n_bits);
      ++n_bits;
      maxcode = n_bits == max_bits ? maxmaxcode : (1u << n_bits) - 1;
    }
    if (!br.get(n_bits, code)) break;  // end of stream

    if (oldcode == -1) {
      if (code > 255) throw Error("z: first code must be a literal");
      finchar = static_cast<std::uint8_t>(code);
      oldcode = static_cast<std::int64_t>(code);
      out.push_back(finchar);
      continue;
    }
    if (code == kClear && block_mode) {
      // Historical behaviour: free_ent restarts at FIRST-1 (slot 256
      // gets burned by the next add), widths restart at 9 bits.
      br.align_group(n_bits);
      n_bits = kInitBits;
      maxcode = (1u << n_bits) - 1;
      free_ent = kFirst - 1;
      continue;
    }

    const std::uint32_t incode = code;
    stack.clear();
    if (code >= free_ent) {
      if (code > free_ent) throw Error("z: corrupt stream (code too big)");
      stack.push_back(finchar);  // KwKwK
      code = static_cast<std::uint32_t>(oldcode);
    }
    while (code >= 256) {
      stack.push_back(suffix[code]);
      code = prefix[code];
    }
    finchar = static_cast<std::uint8_t>(code);
    stack.push_back(finchar);
    out.insert(out.end(), stack.rbegin(), stack.rend());

    if (free_ent < maxmaxcode) {
      prefix[free_ent] = static_cast<std::uint32_t>(oldcode);
      suffix[free_ent] = finchar;
      ++free_ent;
    }
    oldcode = static_cast<std::int64_t>(incode);
  }
  return out;
}

}  // namespace ecomp::compress
