#include "compress/lz77.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "obs/metrics.h"
#include "prof/zone.h"
#include "util/simd.h"

namespace ecomp::compress {

Lz77Params Lz77Params::for_level(int level) {
  // Mirrors zlib's configuration_table.
  switch (std::clamp(level, 1, 9)) {
    case 1: return {4, 4, 8, 4, false};
    case 2: return {4, 5, 16, 8, false};
    case 3: return {4, 6, 32, 32, false};
    case 4: return {4, 4, 16, 16, true};
    case 5: return {8, 16, 32, 32, true};
    case 6: return {8, 16, 128, 128, true};
    case 7: return {8, 32, 128, 256, true};
    case 8: return {32, 128, 258, 1024, true};
    default: return {32, 258, 258, 4096, true};
  }
}

namespace {

constexpr int kHashBits = 15;
constexpr std::uint32_t kHashSize = 1u << kHashBits;

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint16_t load16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Selects the first three bytes in memory of a load32() word.
constexpr std::uint32_t kFirst3Mask =
    std::endian::native == std::endian::little ? 0x00ffffffu : 0xffffff00u;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes.
  const std::uint32_t v =
      std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
      (std::uint32_t{p[2]} << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Reusable hash-chain arenas. One instance lives per thread (see
/// tokenize_scratch()) so block-by-block callers — selective_compress,
/// SelectiveStreamEncoder, the pool workers of the parallel pipeline —
/// pay the 32 K-entry head reset instead of a fresh allocation per
/// block. `prev` is never cleared: every entry read during a chain walk
/// was written by insert() in the same tokenize call (head only ever
/// points at freshly inserted positions), so stale values from an
/// earlier block are unreachable and the output stays deterministic.
struct MatcherScratch {
  std::vector<std::int32_t> head;  // hash -> most recent position
  std::vector<std::int32_t> prev;  // position -> previous with same hash

  void prepare(std::size_t input_size) {
    if (head.empty()) {
      head.assign(kHashSize, -1);
      ECOMP_COUNT_N("prof.alloc.lz77.scratch.bytes",
                    kHashSize * sizeof(std::int32_t));
      ECOMP_COUNT("prof.alloc.lz77.scratch.allocs");
    } else {
      ECOMP_COUNT("lz77.scratch_reuse");
      std::fill(head.begin(), head.end(), -1);
    }
    if (prev.size() < input_size) {
      ECOMP_COUNT_N("prof.alloc.lz77.scratch.bytes",
                    (input_size - prev.size()) * sizeof(std::int32_t));
      ECOMP_COUNT("prof.alloc.lz77.scratch.allocs");
      prev.resize(input_size);
    }
  }
};

MatcherScratch& tokenize_scratch() {
  thread_local MatcherScratch scratch;
  return scratch;
}

struct Matcher {
  ByteSpan in;
  Lz77Params params;
  std::vector<std::int32_t>& head;
  std::vector<std::int32_t>& prev;
  // Common-prefix kernel (util/simd.h), fetched once per tokenize call:
  // the chain walk below calls it millions of times per block. Both
  // pointers always have max_len readable bytes (the candidate ends
  // before the current position), which the wide kernels rely on.
  const simd::MatchLengthFn match_length = simd::match_length_fn();

  // Search statistics, accumulated locally (plain integers — the chain
  // walk is the hottest loop in deflate) and flushed to the registry
  // once per tokenize call. chain_tally counts finds per sliding-
  // histogram bucket of their probe count.
  mutable std::uint64_t stat_probes = 0;
  mutable std::uint64_t stat_finds = 0;
  mutable std::uint64_t stat_matches = 0;
  mutable std::array<std::uint64_t, obs::SlidingHistogram::kBuckets>
      chain_tally{};

  Matcher(ByteSpan input, const Lz77Params& p, MatcherScratch& s)
      : in(input), params(p), head(s.head), prev(s.prev) {
    s.prepare(input.size());
  }

  void flush_stats() const {
    if constexpr (obs::kObsEnabled) {
      auto& reg = obs::Registry::global();
      reg.counter("lz77.match_probes").add(stat_probes);
      reg.counter("lz77.match_finds").add(stat_finds);
      reg.counter("lz77.matches_found").add(stat_matches);
      // Each bucket is recorded at its lower bound with its count, so
      // the quantiles are those of one record per find; the exact
      // probe total is lz77.match_probes.
      auto& chain_len = reg.sliding("lz77.chain_len");
      for (int b = 0; b < obs::SlidingHistogram::kBuckets; ++b)
        if (chain_tally[b])
          chain_len.record(obs::SlidingHistogram::bucket_lower(b),
                           chain_tally[b]);
    }
  }

  void insert(std::size_t pos) {
    if (pos + kLzMinMatch > in.size()) return;
    const std::uint32_t h = hash3(in.data() + pos);
    prev[pos] = head[h];
    head[h] = static_cast<std::int32_t>(pos);
  }

  /// Best match at `pos`, at least `min_len+1` long to be returned.
  /// Returns {length, distance}; length 0 when none found.
  std::pair<int, int> find(std::size_t pos, int min_len) const {
    if (pos + kLzMinMatch > in.size()) return {0, 0};
    const int max_len =
        static_cast<int>(std::min<std::size_t>(kLzMaxMatch, in.size() - pos));
    if (max_len < kLzMinMatch) return {0, 0};

    int chain = params.max_chain;
    if (min_len >= params.good_length) chain >>= 2;
    int best_len = std::max(min_len, kLzMinMatch - 1);
    int best_dist = 0;

    const std::uint8_t* cur = in.data() + pos;
    std::int32_t cand = head[hash3(cur)];
    const std::int64_t limit =
        static_cast<std::int64_t>(pos) - params.window_size;
    // Exact rejection filters. A candidate beats best_len only if its
    // first best_len + 1 bytes equal cur's, so it must agree on the
    // first three bytes (a hash collision fails here) and on the two
    // bytes ending at offset best_len (zlib's scan_end1/scan_end); a
    // candidate failing either would have lost in match_length too, so
    // the result and the probe count are unchanged. cur's prefix is
    // copied bytewise because cur[3] may lie past the input; a
    // candidate starts before pos, so its four-byte load stays in
    // bounds, and best_len < max_len keeps both two-byte loads inside.
    std::uint32_t first3 = 0;
    std::memcpy(&first3, cur, 3);
    std::uint16_t scan_end =
        best_len < max_len ? load16(cur + best_len - 1) : 0;
    std::uint64_t probes = 0;
    while (cand >= 0 && cand > limit && chain-- > 0) {
      if (best_len >= max_len) break;  // cannot improve; also guards reads
      if constexpr (obs::kObsEnabled) ++probes;
      if (static_cast<std::size_t>(cand) != pos) {
        const std::uint8_t* cp = in.data() + cand;
        if (load16(cp + best_len - 1) == scan_end &&
            (load32(cp) & kFirst3Mask) == first3) {
          const int len = match_length(cp, cur, max_len);
          if (len > best_len) {
            best_len = len;
            best_dist = static_cast<int>(pos - static_cast<std::size_t>(cand));
            if (len >= params.nice_length) break;
            if (len < max_len) scan_end = load16(cur + len - 1);
          }
        }
      }
      cand = prev[cand];
    }
    if constexpr (obs::kObsEnabled) {
      stat_probes += probes;
      ++stat_finds;
      ++chain_tally[obs::SlidingHistogram::bucket_index(probes)];
    }
    if (best_dist == 0 || best_len < kLzMinMatch) return {0, 0};
    if constexpr (obs::kObsEnabled) ++stat_matches;
    return {best_len, best_dist};
  }
};

}  // namespace

std::vector<Lz77Token> lz77_tokenize(ByteSpan input,
                                     const Lz77Params& params) {
  std::vector<Lz77Token> tokens;
  if (input.empty()) return tokens;
  // Block granularity: one zone per tokenize call, never per token.
  ECOMP_PROF_ZONE("lz77.match");
  tokens.reserve(input.size() / 3);
  ECOMP_COUNT_N("prof.alloc.lz77.tokens.bytes",
                (input.size() / 3) * sizeof(Lz77Token));
  ECOMP_COUNT("prof.alloc.lz77.tokens.allocs");

  Matcher m(input, params, tokenize_scratch());
  std::size_t pos = 0;

  // Lazy matching state: a pending match from the previous position.
  bool have_prev = false;
  int prev_len = 0, prev_dist = 0;

  auto emit_literal = [&](std::size_t p) {
    tokens.push_back({0, 0, input[p]});
  };
  auto emit_match = [&](int len, int dist) {
    tokens.push_back({static_cast<std::uint16_t>(len),
                      static_cast<std::uint16_t>(dist), 0});
  };

  while (pos < input.size()) {
    auto [len, dist] = m.find(pos, have_prev ? prev_len : 0);

    if (have_prev) {
      if (len > prev_len && prev_len < params.max_lazy) {
        // Current position found a longer match: the previous position
        // degrades to a literal and the new match stays pending.
        emit_literal(pos - 1);
        prev_len = len;
        prev_dist = dist;
        m.insert(pos);
        ++pos;
        continue;
      }
      // Commit the previous match.
      emit_match(prev_len, prev_dist);
      const std::size_t match_end = (pos - 1) + prev_len;
      while (pos < match_end && pos < input.size()) {
        m.insert(pos);
        ++pos;
      }
      have_prev = false;
      continue;
    }

    if (len >= kLzMinMatch) {
      if (params.lazy && len < params.max_lazy && pos + 1 < input.size()) {
        prev_len = len;
        prev_dist = dist;
        have_prev = true;
        m.insert(pos);
        ++pos;
        continue;
      }
      emit_match(len, dist);
      const std::size_t match_end = pos + len;
      while (pos < match_end) {
        m.insert(pos);
        ++pos;
      }
      continue;
    }

    emit_literal(pos);
    m.insert(pos);
    ++pos;
  }
  if (have_prev) {
    // Input ended while a match was pending: it is still valid.
    emit_match(prev_len, prev_dist);
  }
  m.flush_stats();
  ECOMP_COUNT_N("lz77.tokens", tokens.size());
  return tokens;
}

Bytes lz77_reconstruct(const std::vector<Lz77Token>& tokens) {
  ECOMP_PROF_ZONE("lz77.reconstruct");
  std::size_t total = 0;
  for (const auto& t : tokens)
    total += t.length == 0 ? 1 : static_cast<std::size_t>(t.length);

  Bytes out;
  out.reserve(total);  // no reallocation below: pointers stay valid
  for (const auto& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
      continue;
    }
    if (t.distance == 0 || t.distance > out.size())
      throw Error("lz77: invalid distance");
    const std::size_t len = t.length;
    const std::size_t dist = t.distance;
    const std::size_t start = out.size();
    out.resize(start + len);
    std::uint8_t* dst = out.data() + start;
    const std::uint8_t* src = dst - dist;
    if (dist >= len) {
      // Source and destination cannot overlap: one straight copy.
      std::memcpy(dst, src, len);
    } else if (dist >= 8) {
      // Overlapping repeat of a >=8-byte period: copy in chunks whose
      // stride is a multiple of the period, so each memcpy reads only
      // bytes already written and never overlaps its destination. The
      // writable chunk roughly doubles per pass — O(log(len/dist))
      // memcpys for the whole token.
      std::size_t w = 0;
      while (w < len) {
        const std::size_t stride = ((w + dist) / dist) * dist;
        const std::size_t n = std::min(stride, len - w);
        std::memcpy(dst + w, dst + w - stride, n);
        w += n;
      }
    } else {
      // Short period (RLE-like): byte loop is already near-optimal.
      for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
    }
  }
  return out;
}

}  // namespace ecomp::compress
