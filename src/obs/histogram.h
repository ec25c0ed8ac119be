// obs::SlidingHistogram — log-bucketed (HdrHistogram-style) value
// recorder with quantile queries over a sliding time window, built for
// live serving telemetry: every proxy request, codec invocation, and
// resilient-transfer attempt records its latency (or size) here, and
// the STATS surface reads p50/p90/p99/p999 + rate out the other side.
//
// Shape:
//   * Log-linear buckets: values 0..15 map 1:1; above that each octave
//     splits into 2^kSubBits = 8 sub-buckets, so quantile estimates are
//     within kMaxRelativeError = 12.5% of the true value (the "bucket
//     error" the tests and acceptance criteria budget for).
//   * Sliding window: a ring of `slices` time slices covering
//     `window_s` seconds. Recording claims/clears the current slice's
//     slot lazily (epoch CAS), queries merge the slices still inside
//     the window. An all-time total is kept alongside so snapshots stay
//     meaningful after the window drains.
//   * Lock-free shards: writers pick a shard by thread, so concurrent
//     recorders touch disjoint cache lines; every access is a relaxed
//     atomic (TSan-clean by construction). A recorder racing a slice
//     rotation can mis-file a handful of counts into the just-cleared
//     slice — bounded, harmless fuzz; totals are exact.
//
// The class is always compiled (OFF builds can still use it directly);
// the ECOMP_SLIDING_* macros in obs/metrics.h are what hot paths use
// and what ECOMP_OBS=OFF turns into no-ops.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ecomp::obs {

class SlidingHistogram {
 public:
  /// Sub-bucket bits per octave: 8 sub-buckets, <= 12.5% bucket error.
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Worst-case relative half-width... full width of one bucket.
  static constexpr double kMaxRelativeError = 1.0 / kSubBuckets;
  /// Highest bucket index for a 64-bit value (see bucket_index).
  static constexpr int kBuckets = ((64 - kSubBits) << kSubBits) + kSubBuckets;

  struct Options {
    double window_s = 60.0;  ///< sliding-window span
    int slices = 8;          ///< ring granularity (window_s / slices each)
    int shards = 4;          ///< concurrent-writer shards
  };

  struct Snapshot {
    std::uint64_t window_count = 0;  ///< observations inside the window
    double window_sum = 0.0;
    double rate_per_s = 0.0;         ///< window_count / covered seconds
    std::uint64_t total_count = 0;   ///< all-time observations
    double total_sum = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;
    /// True when the quantiles come from the live window; false when
    /// the window was empty and the all-time distribution stood in.
    bool from_window = false;
  };

  SlidingHistogram() : SlidingHistogram(Options{}) {}
  explicit SlidingHistogram(Options opt);

  /// Record `n` observations of value `v` (a hot loop tallies locally
  /// and flushes each value once with its count).
  void record(std::uint64_t v, std::uint64_t n = 1);

  /// Quantile estimate (bucket midpoint) over the window, falling back
  /// to the all-time distribution when the window is empty. q in [0,1].
  double quantile(double q) const;
  /// Allocation-free variant: `scratch` must hold >= kBuckets u64s and
  /// is clobbered (obs::Monitor's sample path reuses one buffer).
  double quantile(double q, std::uint64_t* scratch) const;

  Snapshot snapshot() const;
  /// Allocation-free variant; same scratch contract as quantile().
  Snapshot snapshot(std::uint64_t* scratch) const;

  /// Zero everything (registry reset). Not linearizable against
  /// concurrent recorders — callers quiesce first, as with the other
  /// instruments.
  void reset();

  const Options& options() const { return opt_; }

  /// Replace the time source (tests drive window rotation
  /// deterministically). Must be set before concurrent use.
  void set_clock_for_test(std::function<std::uint64_t()> now_ns);

  // ---- bucket math (exposed for tests and error-bound reasoning) ----

  /// Log-linear index: exact for v < 16, then 8 sub-buckets per octave.
  static int bucket_index(std::uint64_t v) {
    if (v < (1u << (kSubBits + 1))) return static_cast<int>(v);
    const int exp = 63 - std::countl_zero(v);
    const int shift = exp - kSubBits;
    return ((exp - kSubBits) << kSubBits) +
           static_cast<int>(v >> shift);
  }
  /// Smallest value that lands in bucket `idx`.
  static std::uint64_t bucket_lower(int idx) {
    if (idx < (1 << (kSubBits + 1))) return static_cast<std::uint64_t>(idx);
    const int k = (idx >> kSubBits) - 1;
    const std::uint64_t m =
        static_cast<std::uint64_t>(idx - (k << kSubBits));
    return m << k;
  }
  /// One past the largest value in bucket `idx` (saturating at the top
  /// bucket, whose true upper bound of 2^64 is not representable).
  static std::uint64_t bucket_upper(int idx) {
    if (idx + 1 >= kBuckets) return ~std::uint64_t{0};
    return bucket_lower(idx + 1);
  }
  /// Representative value: the bucket's midpoint (halves the error).
  static double bucket_mid(int idx) {
    return (static_cast<double>(bucket_lower(idx)) +
            static_cast<double>(bucket_upper(idx)) - 1.0) /
           2.0;
  }

 private:
  std::uint64_t now_ns() const;
  std::atomic<std::uint64_t>& cell(int shard, int slot, int idx) {
    return counts_[(static_cast<std::size_t>(shard) *
                        static_cast<std::size_t>(opt_.slices) +
                    static_cast<std::size_t>(slot)) *
                       kBuckets +
                   static_cast<std::size_t>(idx)];
  }
  const std::atomic<std::uint64_t>& cell(int shard, int slot,
                                         int idx) const {
    return const_cast<SlidingHistogram*>(this)->cell(shard, slot, idx);
  }
  /// Rotate `slot` to epoch `e` if it is stale (claim via CAS + clear).
  void refresh_slot(int slot, std::uint64_t e);
  /// Merge window buckets; returns the in-window count.
  std::uint64_t merge_window(std::uint64_t* merged, double* sum) const;

  Options opt_;
  std::uint64_t slice_ns_ = 0;
  std::uint64_t start_ns_ = 0;
  std::function<std::uint64_t()> clock_;  ///< test override; empty = steady

  // shard-major [shard][slot][bucket] flat array
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::vector<std::atomic<std::uint64_t>> slice_epoch_;  ///< per slot
  std::vector<std::atomic<std::uint64_t>> slice_sum_;    ///< per slot, raw u64
  std::vector<std::atomic<std::uint64_t>> total_;        ///< per-bucket
  std::atomic<std::uint64_t> total_count_{0};
  std::atomic<std::uint64_t> total_sum_{0};
};

/// RAII scope timer: records elapsed microseconds into a histogram on
/// destruction — the body of ECOMP_SLIDING_TIMER.
class SlidingTimer {
 public:
  explicit SlidingTimer(SlidingHistogram& h)
      : h_(h), t0_(std::chrono::steady_clock::now()) {}
  ~SlidingTimer() {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
    h_.record(static_cast<std::uint64_t>(us < 0 ? 0 : us));
  }
  SlidingTimer(const SlidingTimer&) = delete;
  SlidingTimer& operator=(const SlidingTimer&) = delete;

 private:
  SlidingHistogram& h_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace ecomp::obs
