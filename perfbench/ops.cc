#include "ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace perfbench {
namespace {

constexpr std::uint8_t kStamp[4] = {'P', 'B', 'v', '#'};
constexpr std::size_t kStampBytes = 8;  // magic + u32 LE version
constexpr std::size_t kBandWidth = 3;   // files per popularity size band

template <typename T>
void shuffle(std::vector<T>& v, Prng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// Files of `count` Zipf-popular ops, in seeded order: a fresh rank
/// order every kEpochOps ops.
std::vector<std::uint32_t> popular_files(const std::vector<std::size_t>& sizes,
                                         std::uint64_t seed,
                                         std::size_t count) {
  std::vector<std::uint32_t> files;
  files.reserve(count);
  Prng rng(seed ^ 0x6f70730000000001ull);
  for (std::size_t done = 0; done < count; done += kEpochOps) {
    const std::size_t m = std::min(kEpochOps, count - done);
    const std::vector<std::uint32_t> order =
        popularity_order(sizes, rng.next());
    const std::vector<std::uint32_t> quota = zipf_quota(sizes.size(), m);
    std::vector<std::uint32_t> epoch;
    for (std::size_t rank = 0; rank < order.size(); ++rank)
      epoch.insert(epoch.end(), quota[rank], order[rank]);
    shuffle(epoch, rng);
    files.insert(files.end(), epoch.begin(), epoch.end());
  }
  return files;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::WarmGet: return "warm_get";
    case Workload::OndemandGet: return "ondemand_get";
    case Workload::CodecCorpus: return "codec_corpus";
  }
  return "?";
}

bool parse_workload(const std::string& s, Workload* out) {
  for (Workload w :
       {Workload::WarmGet, Workload::OndemandGet, Workload::CodecCorpus})
    if (s == workload_name(w)) {
      *out = w;
      return true;
    }
  return false;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Raw: return "raw";
    case Mode::Full: return "full";
    case Mode::Selective: return "selective";
  }
  return "?";
}

const char* codec_name(Codec c) {
  switch (c) {
    case Codec::Deflate: return "deflate";
    case Codec::Lzw: return "lzw";
    case Codec::Bwt: return "bwt";
  }
  return "?";
}

std::uint64_t Prng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Prng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint32_t> zipf_quota(std::size_t n, std::size_t m,
                                      double s) {
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k)
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  std::vector<std::uint32_t> quota(n);
  std::vector<std::pair<double, std::size_t>> rem(n);
  std::size_t given = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double exact = static_cast<double>(m) * w[k] / total;
    quota[k] = static_cast<std::uint32_t>(exact);
    given += quota[k];
    rem[k] = {exact - quota[k], k};
  }
  // Largest remainders first; ties go to the more popular rank.
  std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; given < m && i < n; ++i, ++given)
    ++quota[rem[i].second];
  return quota;
}

std::vector<std::uint32_t> popularity_order(
    const std::vector<std::size_t>& sizes, std::uint64_t seed) {
  const std::size_t n = sizes.size();
  std::vector<std::uint32_t> by_size(n);
  std::iota(by_size.begin(), by_size.end(), 0u);
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sizes[a] < sizes[b];
                   });
  const std::size_t bands = std::max<std::size_t>(1, n / kBandWidth);
  std::vector<std::vector<std::uint32_t>> band(bands);
  Prng rng(seed ^ 0x706f700000000002ull);
  for (std::size_t j = 0; j < bands; ++j) {
    band[j].assign(by_size.begin() + static_cast<std::ptrdiff_t>(j * n / bands),
                   by_size.begin() +
                       static_cast<std::ptrdiff_t>((j + 1) * n / bands));
    shuffle(band[j], rng);
  }
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> next(bands, 0);
  for (std::size_t k = 0; order.size() < n; ++k) {
    const std::size_t j = k % bands;
    if (next[j] < band[j].size()) order.push_back(band[j][next[j]++]);
  }
  return order;
}

std::vector<Op> make_ops(Workload w, const std::vector<std::size_t>& sizes,
                         std::uint64_t seed, std::size_t count) {
  std::vector<Op> ops;
  if (w == Workload::CodecCorpus) {
    for (std::uint32_t f = 0; f < sizes.size(); ++f)
      for (int c = 0; c < kCodecCount; ++c)
        ops.push_back({.file = f, .client = Client::Codec,
                       .codec = static_cast<Codec>(c)});
    return ops;
  }

  const std::vector<std::uint32_t> files = popular_files(sizes, seed, count);
  ops.reserve(files.size());
  // Closed loops: modes rotate per file, so each file's ops split evenly
  // across modes whatever its popularity.
  const bool warm = w == Workload::WarmGet;
  const std::vector<Mode> modes =
      warm ? std::vector<Mode>{Mode::Raw, Mode::Full, Mode::Selective}
           : std::vector<Mode>{Mode::Full, Mode::Selective};
  std::vector<std::size_t> seen(sizes.size(), 0);
  for (std::uint32_t f : files)
    ops.push_back({.file = f,
                   .client = warm ? Client::Resilient : Client::Download,
                   .mode = modes[(f + seen[f]++) % modes.size()]});
  return ops;
}

std::vector<Op> make_reference_gets(std::size_t files, std::uint64_t seed,
                                    std::size_t reps) {
  std::vector<Op> ops;
  for (std::size_t r = 0; r < reps; ++r)
    for (std::uint32_t f = 0; f < files; ++f)
      for (Mode m : {Mode::Raw, Mode::Full, Mode::Selective})
        ops.push_back({.file = f, .client = Client::Resilient, .mode = m});
  Prng rng(seed ^ 0x7265666700000005ull);
  shuffle(ops, rng);
  return ops;
}

std::vector<Op> make_reference_puts(std::size_t files, std::uint64_t seed,
                                    std::size_t reps) {
  std::vector<Op> ops;
  Prng rng(seed ^ 0x7265667000000006ull);
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<Op> rep;
    for (std::uint32_t f = 0; f < files; ++f)
      rep.push_back({.file = f, .client = Client::Upload});
    shuffle(rep, rng);
    ops.insert(ops.end(), rep.begin(), rep.end());
  }
  for (std::size_t i = 0; i < ops.size(); ++i)
    ops[i].version = static_cast<std::uint32_t>(i + 1);
  return ops;
}

std::vector<std::uint8_t> versioned(const std::vector<std::uint8_t>& original,
                                    std::uint32_t version) {
  std::vector<std::uint8_t> out = original;
  if (out.size() < kStampBytes) out.resize(kStampBytes);
  std::memcpy(out.data(), kStamp, sizeof kStamp);
  for (int b = 0; b < 4; ++b)
    out[4 + b] = static_cast<std::uint8_t>(version >> (8 * b));
  return out;
}

}  // namespace perfbench
