#include "compress/lzw.h"

#include <algorithm>
#include <bit>

#include "compress/container.h"
#include "compress/lzw_dict.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bitio.h"
#include "util/crc32.h"

namespace ecomp::compress {
namespace {

constexpr std::uint32_t kClearCode = 256;
constexpr std::uint32_t kFirstCode = 257;
constexpr int kMinBits = 9;

// Like ncompress: once the dictionary is full, periodically check the
// running compression factor and emit CLEAR when it degrades.
constexpr std::uint64_t kRatioCheckGap = 10000;  // input bytes per check

/// Code width for the next emit/read given the *maximum value that can
/// appear on the wire at that point* (see the lockstep analysis below).
int width_for(std::uint32_t max_value, int max_bits) {
  const int w = std::bit_width(max_value);
  return std::clamp(w, kMinBits, max_bits);
}

// Lockstep invariant. The encoder emits a code, then inserts a new
// dictionary entry; the decoder reads a code, then inserts. Counting
// emissions/reads k and insertions on both sides shows that just before
// transfer k the maximum value on the wire is
//     V_k = encoder.next_code - 1 = decoder.next_code
// (the decoder's next_code covers the KwKwK case, where the encoder
// emits the entry it inserted on the previous step and the decoder has
// not inserted it yet). Both sides therefore derive the code width from
// their own next_code and stay synchronized by construction, including
// across CLEAR resets (both reset next_code to 257) and dictionary
// saturation (width clamps at max_bits on both sides).

}  // namespace

LzwCodec::LzwCodec(int max_bits) : max_bits_(max_bits) {
  if (max_bits < kMinBits || max_bits > 16)
    throw Error("lzw: max_bits must be in [9,16]");
}

Bytes LzwCodec::compress(ByteSpan input) const {
  ECOMP_TRACE_SPAN("lzw.compress", "codec");
  ECOMP_COUNT_N("lzw.bytes_in", input.size());
  Bytes out;
  write_header(out, kLzwMagic, input.size(), crc32(input));
  out.push_back(static_cast<std::uint8_t>(max_bits_));
  if (input.empty()) {
    ECOMP_COUNT_N("lzw.bytes_out", out.size());
    return out;
  }

  const std::uint32_t max_code = (1u << max_bits_) - 1;
  BitWriterLsb bw;
  // Codes kFirstCode..max_code, and at most one insert per input byte.
  LzwDict dict(std::min<std::size_t>(max_code - kFirstCode + 1, input.size()));
  std::uint32_t next_code = kFirstCode;
  bool full = false;

  std::uint32_t cur = input[0];
  std::uint64_t in_count = 1;
  std::uint64_t next_ratio_check = kRatioCheckGap;
  double best_factor = 0.0;

  auto emit = [&](std::uint32_t code) {
    bw.put(code, width_for(next_code - 1, max_bits_));
  };

  for (std::size_t i = 1; i < input.size(); ++i) {
    const std::uint8_t b = input[i];
    ++in_count;
    const std::uint32_t code = dict.find(cur, b);
    if (code != LzwDict::kMissing) {
      cur = code;
      continue;
    }
    emit(cur);
    if (!full) {
      dict.insert(cur, b, next_code);
      if (next_code >= max_code) {
        full = true;
        best_factor = 0.0;
      }
      ++next_code;  // runs once past max_code when full; width clamps
    } else if (in_count >= next_ratio_check) {
      next_ratio_check = in_count + kRatioCheckGap;
      const double factor = static_cast<double>(in_count) /
                            (static_cast<double>(bw.bit_count()) / 8.0 + 1.0);
      if (factor > best_factor) {
        best_factor = factor;
      } else {
        ECOMP_COUNT("lzw.dict_resets");
        emit(kClearCode);
        dict.clear();
        next_code = kFirstCode;
        full = false;
      }
    }
    cur = b;
  }
  emit(cur);

  Bytes payload = bw.take();
  out.insert(out.end(), payload.begin(), payload.end());
  ECOMP_COUNT_N("lzw.bytes_out", out.size());
  return out;
}

Bytes LzwCodec::decompress(ByteSpan input) const {
  ECOMP_TRACE_SPAN("lzw.decompress", "codec");
  const Header h = read_header(input, kLzwMagic);
  std::size_t pos = h.payload_offset;
  if (pos >= input.size()) throw Error("lzw: truncated stream");
  const int stream_max_bits = input[pos++];
  if (stream_max_bits < kMinBits || stream_max_bits > 16)
    throw Error("lzw: corrupt max_bits");
  Bytes out;
  out.reserve(reserve_hint(h.original_size, input.size() - pos));
  if (h.original_size == 0) {
    check_crc(h, out);
    return out;
  }
  const std::uint32_t max_code = (1u << stream_max_bits) - 1;

  BitReaderLsb br(input.subspan(pos));

  // code -> (prefix code, appended byte); strings materialize backwards.
  struct Entry {
    std::uint32_t prefix;
    std::uint8_t last;
  };
  std::vector<Entry> dict;
  std::uint32_t next_code = kFirstCode;

  Bytes scratch;
  auto expand = [&](std::uint32_t code) -> const Bytes& {
    scratch.clear();
    while (code >= kFirstCode) {
      if (code - kFirstCode >= dict.size())
        throw Error("lzw: dangling prefix");
      const Entry& e = dict[code - kFirstCode];
      scratch.push_back(e.last);
      code = e.prefix;
    }
    scratch.push_back(static_cast<std::uint8_t>(code));
    std::reverse(scratch.begin(), scratch.end());
    return scratch;
  };

  auto read_code = [&]() {
    return br.get(width_for(next_code, stream_max_bits));
  };

  std::uint32_t prev = read_code();
  if (prev > 255) throw Error("lzw: first code must be a literal");
  out.push_back(static_cast<std::uint8_t>(prev));

  while (out.size() < h.original_size) {
    const std::uint32_t code = read_code();
    if (code == kClearCode) {
      dict.clear();
      next_code = kFirstCode;
      prev = read_code();
      if (prev > 255) throw Error("lzw: code after clear must be literal");
      out.push_back(static_cast<std::uint8_t>(prev));
      continue;
    }
    const std::uint32_t avail =
        kFirstCode + static_cast<std::uint32_t>(dict.size());
    if (code > avail) throw Error("lzw: code out of range");

    std::uint8_t first;
    if (code == avail) {
      // KwKwK: the string is expand(prev) + first byte of expand(prev).
      const Bytes& p = expand(prev);
      first = p[0];
      out.insert(out.end(), p.begin(), p.end());
      out.push_back(first);
    } else {
      const Bytes& s = expand(code);
      first = s[0];
      out.insert(out.end(), s.begin(), s.end());
    }

    if (next_code <= max_code) {
      dict.push_back({prev, first});
      ++next_code;
    } else {
      ++next_code;       // mirror the encoder's one-past increment …
      next_code = max_code + 1;  // … but never beyond, so width clamps
    }
    prev = code;
  }
  check_crc(h, out);
  return out;
}

}  // namespace ecomp::compress
