// Seeded operation lists for the benchmark's workloads. Everything a run
// issues is generated here, up front, from the seed and the corpus file
// sizes: which file, which client entry point, which mode, when it is
// due (open loop) and which version a PUT writes. Clients then take ops
// by index, so every run of a seed issues the same set of ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { WarmGet, OndemandGet, CodecCorpus };

/// Wire mode of a GET (the proxy protocol's raw | full | selective).
enum class Mode : std::uint8_t { Raw, Full, Selective };

/// Which entry point an op goes through.
enum class Client : std::uint8_t {
  Download,   ///< net::download — plain GET
  Resilient,  ///< net::download_resilient — GET-RANGE, what `ecomp download` calls
  Upload,     ///< net::upload_resilient — a PUT
  Codec,      ///< compress::Codec round trip
};

enum class Codec : std::uint8_t { Deflate, Lzw, Bwt };
inline constexpr int kCodecCount = 3;

const char* workload_name(Workload w);
bool parse_workload(const std::string& s, Workload* out);
const char* mode_name(Mode m);
const char* codec_name(Codec c);

struct Op {
  std::uint32_t file = 0;
  Client client = Client::Resilient;
  Mode mode = Mode::Raw;
  Codec codec = Codec::Deflate;
  std::uint32_t version = 0;   ///< PUT: version written (>= 1)

  bool is_get() const {
    return client == Client::Download || client == Client::Resilient;
  }
  bool operator==(const Op&) const = default;
};

/// splitmix64: small, portable, and the same on every platform (the
/// <random> distributions are not).
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform();  ///< [0, 1)

 private:
  std::uint64_t s_;
};

/// Zipf(s) quotas: how many of `m` ops fall on each of `n` popularity
/// ranks, by largest remainder, so a list of m ops matches the
/// distribution exactly instead of sampling it.
std::vector<std::uint32_t> zipf_quota(std::size_t n, std::size_t m,
                                      double s = 1.0);

/// File index holding each popularity rank. Files are grouped into size
/// bands of about three neighbours; rank k is dealt to band k mod B and
/// the seed shuffles files within each band. A free shuffle would let a
/// seed make the hot set all-large or all-small, which moves the mean
/// GET size by tens of percent between seeds.
std::vector<std::uint32_t> popularity_order(
    const std::vector<std::size_t>& sizes, std::uint64_t seed);

/// Popularity drifts: every kEpochOps ops the seed deals a fresh rank
/// order, and each epoch holds the Zipf quotas exactly. Averaging over
/// several epochs keeps one unlucky deal from setting a run's numbers.
inline constexpr std::size_t kEpochOps = 300;

/// One cycle of workload `w`, which the clients repeat: `count` GETs
/// for warm_get and ondemand_get; every file through every codec for
/// codec_corpus, whatever `count` says. The codec cycle runs in corpus
/// order whatever the seed: the codecs' large, short-lived buffers make
/// the peak resident set depend on the order of the calls, by a fifth
/// between seeds when it was shuffled.
std::vector<Op> make_ops(Workload w, const std::vector<std::size_t>& sizes,
                         std::uint64_t seed, std::size_t count);

/// Companion ops with a fixed make-up, so their percentiles do not
/// depend on the seed (which only orders them): every file `reps` times
/// in each of raw, full and selective through download_resilient, and
/// every file PUT `reps` times (versions 1, 2, ...). Each run of
/// `files` PUTs holds every file once.
std::vector<Op> make_reference_gets(std::size_t files, std::uint64_t seed,
                                    std::size_t reps);
std::vector<Op> make_reference_puts(std::size_t files, std::uint64_t seed,
                                    std::size_t reps);

/// The bytes a PUT of `version` writes: the original with its first
/// eight bytes replaced by a version stamp. Same size, same
/// compressibility, and every version is distinguishable.
std::vector<std::uint8_t> versioned(const std::vector<std::uint8_t>& original,
                                    std::uint32_t version);

}  // namespace perfbench
