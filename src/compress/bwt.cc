#include "compress/bwt.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "obs/metrics.h"
#include "util/simd.h"

namespace ecomp::compress {
namespace {

constexpr std::uint32_t kEmpty = 0xffffffffu;

/// SA-IS (Nong-Zhang-Chan induced sorting) over s[0..n) with values
/// < K and an implicit sentinel at position n smaller than every value.
/// Writes the n suffix start positions to sa in increasing suffix order.
/// O(n) time; recursion operates on the reduced LMS string.
template <typename Char>
void sais_core(const Char* s, std::uint32_t* sa, std::size_t n,
               std::uint32_t K) {
  if (n == 0) return;
  if (n == 1) {
    sa[0] = 0;
    return;
  }

  // Suffix types: S if the suffix is smaller than its right neighbour.
  // The last suffix is L (its tail is the sentinel, smaller than s[n-1]).
  std::vector<std::uint8_t> type(n);
  type[n - 1] = 0;
  for (std::size_t i = n - 1; i-- > 0;)
    type[i] = (s[i] < s[i + 1] || (s[i] == s[i + 1] && type[i + 1])) ? 1 : 0;
  const auto is_lms = [&](std::size_t i) {
    return i > 0 && type[i] && !type[i - 1];
  };

  std::vector<std::uint32_t> counts(K, 0), bkt(K);
  for (std::size_t i = 0; i < n; ++i) ++counts[s[i]];
  const auto bucket_starts = [&] {
    std::uint32_t sum = 0;
    for (std::uint32_t c = 0; c < K; ++c) {
      bkt[c] = sum;
      sum += counts[c];
    }
  };
  const auto bucket_ends = [&] {
    std::uint32_t sum = 0;
    for (std::uint32_t c = 0; c < K; ++c) {
      sum += counts[c];
      bkt[c] = sum;
    }
  };

  // Induce L-suffixes left-to-right from sorted LMS seeds, then
  // S-suffixes right-to-left. The virtual sentinel's predecessor n-1
  // leads its bucket's L region.
  const auto induce = [&] {
    bucket_starts();
    sa[bkt[s[n - 1]]++] = static_cast<std::uint32_t>(n - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t j = sa[i];
      if (j != kEmpty && j > 0 && !type[j - 1]) sa[bkt[s[j - 1]]++] = j - 1;
    }
    bucket_ends();
    for (std::size_t i = n; i-- > 0;) {
      const std::uint32_t j = sa[i];
      if (j != kEmpty && j > 0 && type[j - 1]) sa[--bkt[s[j - 1]]] = j - 1;
    }
  };

  // Stage 1: seed LMS positions at their bucket ends (any order within a
  // bucket sorts the LMS *substrings*), induce once.
  std::fill(sa, sa + n, kEmpty);
  bucket_ends();
  for (std::size_t i = n; i-- > 1;)
    if (is_lms(i)) sa[--bkt[s[i]]] = static_cast<std::uint32_t>(i);
  induce();

  // Compact the sorted LMS positions to the front of sa.
  std::size_t n1 = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (is_lms(sa[i])) sa[n1++] = sa[i];

  // Stage 2: name LMS substrings. Lengths live at sa[n1 + pos/2]
  // (consecutive LMS positions differ by >= 2, so slots are unique and
  // n1 + n/2 <= n). The substring reaching the text end includes the
  // sentinel — its stored length n-pos+1 pushes pos+len past n, which
  // forces "different" below without reading out of bounds.
  std::fill(sa + n1, sa + n, 0);
  {
    std::size_t last = kEmpty;
    for (std::size_t i = 1; i < n; ++i) {
      if (!is_lms(i)) continue;
      if (last != static_cast<std::size_t>(kEmpty))
        sa[n1 + (last >> 1)] = static_cast<std::uint32_t>(i - last + 1);
      last = i;
    }
    if (last != static_cast<std::size_t>(kEmpty))
      sa[n1 + (last >> 1)] = static_cast<std::uint32_t>(n - last + 1);
  }
  std::uint32_t name = 0;
  {
    std::uint32_t q = kEmpty, qlen = 0;
    for (std::size_t i = 0; i < n1; ++i) {
      const std::uint32_t p = sa[i];
      const std::uint32_t plen = sa[n1 + (p >> 1)];
      bool diff = true;
      if (q != kEmpty && plen == qlen && p + plen <= n && q + qlen <= n) {
        std::uint32_t d = 0;
        while (d < plen && s[p + d] == s[q + d]) ++d;
        diff = d < plen;
      }
      if (diff) {
        ++name;
        q = p;
        qlen = plen;
      }
      sa[n1 + (p >> 1)] = name - 1;
    }
  }

  // Reduced problem: names in text order; recurse only if names repeat.
  std::vector<std::uint32_t> s1(n1), sa1(n1), lms(n1);
  {
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (is_lms(i)) {
        s1[j] = sa[n1 + (i >> 1)];
        lms[j] = static_cast<std::uint32_t>(i);
        ++j;
      }
  }
  if (name < n1) {
    sais_core<std::uint32_t>(s1.data(), sa1.data(), n1, name);
  } else {
    for (std::size_t i = 0; i < n1; ++i) sa1[s1[i]] = static_cast<std::uint32_t>(i);
  }

  // Stage 3: seed the now fully sorted LMS suffixes and induce the
  // final order.
  std::fill(sa, sa + n, kEmpty);
  bucket_ends();
  for (std::size_t i = n1; i-- > 0;) {
    const std::uint32_t p = lms[sa1[i]];
    sa[--bkt[s[p]]] = p;
  }
  induce();
}

/// Start of the least rotation of `s` (the two-pointer minimal-rotation
/// scan, O(n)): i and j are the two surviving candidates and k the
/// length of their common prefix. On a mismatch the larger candidate
/// and the k positions after it cannot start the least rotation (each
/// loses against the same offset of the other candidate), so it jumps
/// past them. Rotations are read cyclically without copying the block.
std::size_t least_rotation(ByteSpan s) {
  const std::size_t n = s.size();
  std::size_t i = 0, j = 1, k = 0;
  while (i < n && j < n && k < n) {
    std::size_t a = i + k, b = j + k;
    if (a >= n) a -= n;
    if (b >= n) b -= n;
    if (s[a] == s[b]) {
      ++k;
      continue;
    }
    if (s[a] > s[b])
      i += k + 1;
    else
      j += k + 1;
    if (i == j) ++j;
    k = 0;
  }
  return std::min(i, j);
}

/// Rotation order of a cyclically aperiodic block, from an n-symbol
/// suffix sort. Rotate the block to its least rotation w = block[k..) +
/// block[..k). An aperiodic block's rotations are all distinct, so w is
/// strictly smaller than every proper rotation of itself: a Lyndon word.
/// For a Lyndon word, rotation order equals suffix order under the
/// implicit smaller sentinel sais_core uses. Take positions i != j with
/// suffixes S_i = w[i..n) and S_j = w[j..n). If neither suffix is a
/// prefix of the other, both orders are decided at the same first
/// mismatch. Otherwise, say S_j is a proper prefix of S_i (so i < j);
/// the suffix order puts S_j first. The rotations are S_j + w[0..j) and
/// S_j + r[0..j), where r is the proper rotation of w starting at
/// m = n - (j - i), so they compare as w[0..j) against r[0..j). As w < r,
/// w[0..j) <= r[0..j), and equality would make the two rotations equal
/// and the block periodic. So rotation j comes first too. The rotation
/// order of the block is then the suffix order of w with every position
/// shifted by k (mod n).
std::vector<std::uint32_t> rotation_order_aperiodic(ByteSpan block) {
  const std::size_t n = block.size();
  const std::size_t k = least_rotation(block);
  std::vector<std::uint8_t> w(n);
  std::memcpy(w.data(), block.data() + k, n - k);
  std::memcpy(w.data() + (n - k), block.data(), k);
  std::vector<std::uint32_t> order(n);
  sais_core<std::uint8_t>(w.data(), order.data(), n, 256);
  const auto shift = static_cast<std::uint32_t>(k);
  const auto size = static_cast<std::uint32_t>(n);
  for (std::uint32_t& p : order) {
    p += shift;
    if (p >= size) p -= size;
  }
  return order;
}

/// Smallest linear period via the KMP failure function. The smallest
/// *cyclic* period is this value iff it divides n (and n otherwise): a
/// cyclic period p | n is also a linear period, and the Fine-Wilf
/// argument collapses any p | n, p < n onto a divisor-of-n linear
/// period, so a non-dividing minimal linear period means all rotations
/// are distinct.
std::size_t smallest_period(ByteSpan s) {
  const std::size_t n = s.size();
  std::vector<std::uint32_t> fail(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t k = fail[i - 1];
    while (k > 0 && s[i] != s[k]) k = fail[k - 1];
    if (s[i] == s[k]) ++k;
    fail[i] = static_cast<std::uint32_t>(k);
  }
  return n - fail[n - 1];
}

}  // namespace

std::vector<std::uint32_t> suffix_array(ByteSpan text) {
  std::vector<std::uint32_t> sa(text.size());
  sais_core<std::uint8_t>(text.data(), sa.data(), text.size(), 256);
  return sa;
}

Bytes bwt_forward(ByteSpan block, std::uint32_t& primary) {
  const std::size_t n = block.size();
  ECOMP_COUNT("bwt.block_sorts");
  ECOMP_SLIDING_OBSERVE("bwt.block_bytes", n);
  primary = 0;
  if (n == 0) return {};
  if (n == 1) return Bytes(block.begin(), block.end());

  const std::size_t q = smallest_period(block);
  std::vector<std::uint32_t> sa;
  if (q < n && n % q == 0) {
    // Cyclically periodic block: rotations at positions congruent mod q
    // are equal. Sort the aperiodic unit's rotations and expand each
    // class in ascending position order — the tie order the stable
    // prefix-doubling reference produces (and the order `primary`
    // depends on).
    const auto unit = rotation_order_aperiodic(block.first(q));
    sa.reserve(n);
    for (std::uint32_t r : unit)
      for (std::size_t p = r; p < n; p += q)
        sa.push_back(static_cast<std::uint32_t>(p));
  } else {
    sa = rotation_order_aperiodic(block);
  }

  Bytes last(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sa[i] == 0) primary = static_cast<std::uint32_t>(i);
    last[i] = block[sa[i] == 0 ? n - 1 : sa[i] - 1];
  }
  return last;
}

Bytes bwt_forward_doubling(ByteSpan block, std::uint32_t& primary) {
  const std::size_t n = block.size();
  primary = 0;
  if (n == 0) return {};
  if (n == 1) return Bytes(block.begin(), block.end());

  // Sort cyclic rotations by prefix doubling. rank[i] is the order class
  // of the rotation starting at i considering its first k characters.
  // `rank` is padded to 2n with a copy of itself (rank[n+i] == rank[i])
  // so the cyclic second key rank[(i+k) % n] becomes the branch- and
  // division-free rank[i + kk] with kk = k % n reduced once per round.
  std::vector<std::uint32_t> sa(n), rank(2 * n), new_rank(2 * n), tmp(n), cnt;
  for (std::size_t i = 0; i < n; ++i) {
    sa[i] = static_cast<std::uint32_t>(i);
    rank[i] = block[i];
    rank[n + i] = block[i];
  }

  for (std::size_t k = 1;; k <<= 1) {
    const std::size_t kk = k % n;
    auto rank_at = [&](std::uint32_t i) { return rank[i]; };
    auto second_key = [&](std::uint32_t i) {
      return rank[i + kk];
    };

    // Radix sort sa by (rank[i], rank[i+k]) — two counting-sort passes.
    const std::uint32_t max_rank =
        *std::max_element(rank.begin(), rank.begin() + static_cast<std::ptrdiff_t>(n)) + 1;

    // Pass 1: by second key.
    cnt.assign(max_rank + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++cnt[second_key(sa[i])];
    for (std::size_t i = 1; i < cnt.size(); ++i) cnt[i] += cnt[i - 1];
    for (std::size_t i = n; i-- > 0;)
      tmp[--cnt[second_key(sa[i])]] = sa[i];
    // Pass 2: by first key (stable, so second-key order is preserved).
    cnt.assign(max_rank + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++cnt[rank_at(tmp[i])];
    for (std::size_t i = 1; i < cnt.size(); ++i) cnt[i] += cnt[i - 1];
    for (std::size_t i = n; i-- > 0;) sa[--cnt[rank_at(tmp[i])]] = tmp[i];

    // Re-rank (writing both halves keeps the padding invariant).
    new_rank[sa[0]] = 0;
    new_rank[static_cast<std::size_t>(sa[0]) + n] = 0;
    std::uint32_t classes = 1;
    for (std::size_t i = 1; i < n; ++i) {
      const bool same = rank_at(sa[i]) == rank_at(sa[i - 1]) &&
                        second_key(sa[i]) == second_key(sa[i - 1]);
      const std::uint32_t r = same ? classes - 1 : classes++;
      new_rank[sa[i]] = r;
      new_rank[static_cast<std::size_t>(sa[i]) + n] = r;
    }
    rank.swap(new_rank);
    if (classes == n) break;
    if (k >= n) break;  // all rotations compared full-length; ties remain
  }

  Bytes last(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sa[i] == 0) primary = static_cast<std::uint32_t>(i);
    last[i] = block[sa[i] == 0 ? n - 1 : sa[i] - 1];
  }
  return last;
}

Bytes bwt_inverse(ByteSpan last_column, std::uint32_t primary) {
  const std::size_t n = last_column.size();
  if (n == 0) return {};
  if (primary >= n) throw Error("bwt: primary index out of range");

  // lf[i]: row of the rotation obtained by rotating row i right by one.
  std::vector<std::uint32_t> starts(256, 0);
  for (std::uint8_t c : last_column) ++starts[c];
  std::uint32_t sum = 0;
  for (int c = 0; c < 256; ++c) {
    const std::uint32_t cc = starts[c];
    starts[c] = sum;
    sum += cc;
  }
  if (n < (std::size_t{1} << 24)) {
    // Pack lf[i] (low 24 bits) with last_column[i] (high 8) so the
    // latency-bound backward walk issues one dependent load per output
    // byte instead of two. Codec blocks cap at 900 KB, so this path
    // always applies there; the unpacked walk below keeps larger
    // callers correct.
    constexpr std::uint32_t kIdx = 0x00ffffffu;
    Bytes out(n);
    if (n < (std::size_t{1} << 16)) {
      std::vector<std::uint32_t> tt(n);
      for (std::size_t i = 0; i < n; ++i)
        tt[i] = starts[last_column[i]]++ |
                (std::uint32_t{last_column[i]} << 24);
      std::uint32_t p = primary;
      for (std::size_t k = n; k-- > 0;) {
        const std::uint32_t v = tt[p];
        out[k] = static_cast<std::uint8_t>(v >> 24);
        p = v & kIdx;
      }
      return out;
    }
    // Large blocks: the walk is a single dependent-load chain, so its
    // cost is n * cache-miss latency no matter how cheap each step is.
    // Shorten the chain 8x by repeatedly squaring the step table: t2/t4
    // pack the index 2/4 steps ahead with the bytes the serial walk
    // would emit along the way, and the final t8 level splits into an
    // index array and a 64-bit emit word so the walk issues one
    // dependent load per EIGHT output bytes. The squaring passes are
    // independent random loads, which the CPU overlaps many at a time —
    // unlike the walk's serial chain — so together they cost far less
    // than the latency they remove. Each t8 entry just replays eight
    // exact serial steps, so the output is byte-for-byte identical and
    // cycle structure (periodic blocks) never matters.
    //
    // The tables are reused across calls (thread-local, grown to the
    // largest small-enough block this thread has inverted) so steady
    // per-block decode pays no allocation or page-fault cost; codec
    // blocks cap at 900 KB, well under the reuse bound.
    struct Scratch {
      std::vector<std::uint32_t> idx;   // t1, then reused as t8 index
      std::vector<std::uint64_t> even;  // t2, then reused as t8 word
      std::vector<std::uint64_t> quad;  // t4
    };
    constexpr std::size_t kScratchMax = std::size_t{1} << 20;
    thread_local Scratch scratch;
    Scratch local;
    Scratch& s = n <= kScratchMax ? scratch : local;
    if (s.idx.size() < n) {
      s.idx.resize(n);
      s.even.resize(n);
      s.quad.resize(n);
    }
    std::uint32_t* const t1 = s.idx.data();
    std::uint64_t* const t2 = s.even.data();
    std::uint64_t* const t4 = s.quad.data();
    for (std::size_t i = 0; i < n; ++i)
      t1[i] = starts[last_column[i]]++ |
              (std::uint32_t{last_column[i]} << 24);
    std::uint32_t p = primary;
    std::size_t k = n;
    for (std::size_t r = n & 7; r-- > 0;) {
      const std::uint32_t v = t1[p];
      out[--k] = static_cast<std::uint8_t>(v >> 24);
      p = v & kIdx;
    }
    // t2[i]: index two steps ahead | (the two emitted bytes) << 32,
    // bytes ordered so concatenating entries' byte halves yields the
    // final store word directly (later-emitted byte in the lower lane).
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t v0 = t1[i];
      const std::uint32_t v1 = t1[v0 & kIdx];
      t2[i] = (v1 & kIdx) |
              (std::uint64_t{(v1 >> 24) | ((v0 >> 24) << 8)} << 32);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t u0 = t2[i];
      const std::uint64_t u1 = t2[u0 & kIdx];
      t4[i] = (u1 & kIdx) |
              (((u1 >> 32) | ((u0 >> 32) << 16)) << 32);
    }
    // Final level in two arrays: t1 (no longer needed) takes the 8-step
    // index, t2 takes the 8-byte emit word.
    std::uint32_t* const t8i = t1;
    std::uint64_t* const t8w = t2;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t q0 = t4[i];
      const std::uint64_t q1 = t4[q0 & kIdx];
      t8i[i] = static_cast<std::uint32_t>(q1 & kIdx);
      t8w[i] = (q1 >> 32) | ((q0 >> 32) << 32);
    }
    while (k > 0) {
      const std::uint64_t w = t8w[p];
      const std::uint32_t next = t8i[p];
      k -= 8;
      out[k] = static_cast<std::uint8_t>(w);
      out[k + 1] = static_cast<std::uint8_t>(w >> 8);
      out[k + 2] = static_cast<std::uint8_t>(w >> 16);
      out[k + 3] = static_cast<std::uint8_t>(w >> 24);
      out[k + 4] = static_cast<std::uint8_t>(w >> 32);
      out[k + 5] = static_cast<std::uint8_t>(w >> 40);
      out[k + 6] = static_cast<std::uint8_t>(w >> 48);
      out[k + 7] = static_cast<std::uint8_t>(w >> 56);
      p = next;
    }
    return out;
  }

  std::vector<std::uint32_t> lf(n);
  for (std::size_t i = 0; i < n; ++i) lf[i] = starts[last_column[i]]++;

  Bytes out(n);
  std::uint32_t p = primary;
  for (std::size_t k = n; k-- > 0;) {
    out[k] = last_column[p];
    p = lf[p];
  }
  return out;
}

Bytes rle1_encode(ByteSpan input) {
  Bytes out;
  out.reserve(input.size());
  std::size_t i = 0;
  while (i < input.size()) {
    const std::uint8_t b = input[i];
    std::size_t run = 1;
    while (i + run < input.size() && input[i + run] == b && run < 259) ++run;
    if (run >= 4) {
      out.insert(out.end(), 4, b);
      out.push_back(static_cast<std::uint8_t>(run - 4));
    } else {
      out.insert(out.end(), run, b);
    }
    i += run;
  }
  return out;
}

Bytes rle1_decode(ByteSpan input) {
  Bytes out;
  out.reserve(input.size());
  std::size_t i = 0;
  while (i < input.size()) {
    const std::uint8_t b = input[i];
    std::size_t run = 1;
    while (run < 4 && i + run < input.size() && input[i + run] == b) ++run;
    out.insert(out.end(), run, b);
    i += run;
    if (run == 4) {
      if (i >= input.size()) throw Error("rle1: truncated run count");
      out.insert(out.end(), input[i], b);
      ++i;
    }
  }
  return out;
}

Bytes mtf_encode(ByteSpan input) {
  std::uint8_t order[256];
  for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
  Bytes out;
  out.reserve(input.size());
  // Rank scan via the dispatched find-byte kernel (order is a
  // permutation, so the first hit is the rank); the move-to-front shift
  // is a single overlapping memmove. BWT output is run-heavy, so the
  // rank-0 fast path covers most bytes.
  const simd::FindByteFn find_byte = simd::find_byte_fn();
  for (std::uint8_t b : input) {
    if (order[0] == b) {
      out.push_back(0);
      continue;
    }
    const int idx = find_byte(order, 256, b);
    out.push_back(static_cast<std::uint8_t>(idx));
    std::memmove(order + 1, order, static_cast<std::size_t>(idx));
    order[0] = b;
  }
  return out;
}

Bytes mtf_decode(ByteSpan input) {
  std::uint8_t order[256];
  for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
  Bytes out;
  out.reserve(input.size());
  for (std::uint8_t idx : input) {
    const std::uint8_t b = order[idx];
    out.push_back(b);
    std::memmove(order + 1, order, idx);
    order[0] = b;
  }
  return out;
}

std::vector<std::uint16_t> zrle_encode(ByteSpan mtf) {
  std::vector<std::uint16_t> out;
  out.reserve(mtf.size() / 2 + 16);
  std::size_t i = 0;
  auto flush_run = [&](std::uint64_t r) {
    // Bijective base-2: digits RUNA (value 1) and RUNB (value 2) at
    // positional weight 2^k.
    while (r > 0) {
      if (r & 1) {
        out.push_back(kZrleRunA);
        r = (r - 1) >> 1;
      } else {
        out.push_back(kZrleRunB);
        r = (r - 2) >> 1;
      }
    }
  };
  while (i < mtf.size()) {
    if (mtf[i] == 0) {
      std::uint64_t run = 0;
      while (i < mtf.size() && mtf[i] == 0) {
        ++run;
        ++i;
      }
      flush_run(run);
    } else {
      out.push_back(static_cast<std::uint16_t>(mtf[i] + 1));
      ++i;
    }
  }
  out.push_back(kZrleEob);
  return out;
}

Bytes zrle_decode(const std::vector<std::uint16_t>& syms,
                  std::size_t max_size) {
  Bytes out;
  std::uint64_t run = 0;
  std::uint64_t place = 1;
  auto flush_run = [&] {
    if (run > 0) {
      out.insert(out.end(), run, 0);
      run = 0;
    }
    place = 1;
  };
  for (std::uint16_t s : syms) {
    if (s == kZrleRunA || s == kZrleRunB) {
      run += place * (s == kZrleRunA ? 1 : 2);
      place <<= 1;
      if (run > max_size - out.size())
        throw Error("zrle: zero run past the block size");
      continue;
    }
    flush_run();
    if (s == kZrleEob) return out;
    if (s > 256) throw Error("zrle: bad symbol");
    if (out.size() == max_size) throw Error("zrle: block overrun");
    out.push_back(static_cast<std::uint8_t>(s - 1));
  }
  throw Error("zrle: missing end-of-block");
}

}  // namespace ecomp::compress
