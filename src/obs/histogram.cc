#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/bytes.h"

namespace ecomp::obs {

SlidingHistogram::SlidingHistogram(Options opt) : opt_(opt) {
  if (opt_.slices < 1) opt_.slices = 1;
  if (opt_.shards < 1) opt_.shards = 1;
  if (!(opt_.window_s > 0.0)) opt_.window_s = 60.0;
  slice_ns_ = static_cast<std::uint64_t>(
      std::max(opt_.window_s / opt_.slices * 1e9, 1.0));
  counts_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(opt_.shards) *
      static_cast<std::size_t>(opt_.slices) * kBuckets);
  slice_epoch_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(opt_.slices));
  slice_sum_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(opt_.slices));
  total_ = std::vector<std::atomic<std::uint64_t>>(kBuckets);
  start_ns_ = now_ns();
  // Epoch 0 is a real epoch at start-up; mark every slot stale so the
  // first record into a slot claims it explicitly.
  for (auto& e : slice_epoch_) e.store(~std::uint64_t{0});
}

std::uint64_t SlidingHistogram::now_ns() const {
  if (clock_) return clock_();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SlidingHistogram::set_clock_for_test(
    std::function<std::uint64_t()> now_ns_fn) {
  clock_ = std::move(now_ns_fn);
  start_ns_ = now_ns();
}

void SlidingHistogram::refresh_slot(int slot, std::uint64_t e) {
  std::uint64_t cur = slice_epoch_[static_cast<std::size_t>(slot)].load(
      std::memory_order_relaxed);
  if (cur == e) return;
  // Claim the rotation: exactly one thread clears the slot for epoch e.
  if (!slice_epoch_[static_cast<std::size_t>(slot)]
           .compare_exchange_strong(cur, e, std::memory_order_acq_rel))
    return;  // someone else rotated (to e or newer) — just record
  for (int s = 0; s < opt_.shards; ++s)
    for (int b = 0; b < kBuckets; ++b)
      cell(s, slot, b).store(0, std::memory_order_relaxed);
  slice_sum_[static_cast<std::size_t>(slot)].store(0,
                                                   std::memory_order_relaxed);
}

void SlidingHistogram::record(std::uint64_t v, std::uint64_t n) {
  const int idx = std::min(bucket_index(v), kBuckets - 1);
  const std::uint64_t e = now_ns() / slice_ns_;
  const int slot = static_cast<int>(e % static_cast<std::uint64_t>(
                                            opt_.slices));
  refresh_slot(slot, e);

  // Shard by thread: a dense per-thread ordinal, wrapped to the shard
  // count, keeps concurrent recorders off each other's cache lines.
  static std::atomic<unsigned> next_thread{0};
  thread_local const unsigned thread_ord =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  const int shard = static_cast<int>(thread_ord %
                                     static_cast<unsigned>(opt_.shards));

  // Totals first, window cell last (release), and merge_window loads
  // cells with acquire: a snapshot reads the window before the totals,
  // so any record it sees in the window is already in the totals —
  // window_count can never transiently exceed total_count.
  total_[static_cast<std::size_t>(idx)].fetch_add(n,
                                                  std::memory_order_relaxed);
  total_count_.fetch_add(n, std::memory_order_relaxed);
  total_sum_.fetch_add(v * n, std::memory_order_relaxed);
  slice_sum_[static_cast<std::size_t>(slot)].fetch_add(
      v * n, std::memory_order_relaxed);
  cell(shard, slot, idx).fetch_add(n, std::memory_order_release);
}

std::uint64_t SlidingHistogram::merge_window(std::uint64_t* merged,
                                             double* sum) const {
  const std::uint64_t now = now_ns();
  const std::uint64_t e = now / slice_ns_;
  std::uint64_t count = 0;
  double s = 0.0;
  for (int b = 0; b < kBuckets; ++b) merged[b] = 0;
  for (int slot = 0; slot < opt_.slices; ++slot) {
    const std::uint64_t ep = slice_epoch_[static_cast<std::size_t>(slot)]
                                 .load(std::memory_order_relaxed);
    if (ep == ~std::uint64_t{0}) continue;  // never used
    if (ep > e || e - ep >= static_cast<std::uint64_t>(opt_.slices))
      continue;  // outside the window
    for (int sh = 0; sh < opt_.shards; ++sh)
      for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t c =
            cell(sh, slot, b).load(std::memory_order_acquire);
        merged[b] += c;
        count += c;
      }
    s += static_cast<double>(slice_sum_[static_cast<std::size_t>(slot)]
                                 .load(std::memory_order_relaxed));
  }
  if (sum) *sum = s;
  return count;
}

namespace {

double quantile_from(const std::uint64_t* buckets, std::uint64_t count,
                     double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based, ceil), then walk the CDF.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (int b = 0; b < SlidingHistogram::kBuckets; ++b) {
    cum += buckets[b];
    if (cum >= rank) return SlidingHistogram::bucket_mid(b);
  }
  return SlidingHistogram::bucket_mid(SlidingHistogram::kBuckets - 1);
}

}  // namespace

double SlidingHistogram::quantile(double q) const {
  std::vector<std::uint64_t> scratch(kBuckets);
  return quantile(q, scratch.data());
}

double SlidingHistogram::quantile(double q, std::uint64_t* scratch) const {
  std::uint64_t count = merge_window(scratch, nullptr);
  if (count == 0) {
    // Window drained: the all-time distribution stands in, reusing the
    // same scratch buffer.
    for (int b = 0; b < kBuckets; ++b) {
      scratch[b] =
          total_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
      count += scratch[b];
    }
  }
  return quantile_from(scratch, count, q);
}

SlidingHistogram::Snapshot SlidingHistogram::snapshot() const {
  std::vector<std::uint64_t> scratch(kBuckets);
  return snapshot(scratch.data());
}

SlidingHistogram::Snapshot SlidingHistogram::snapshot(
    std::uint64_t* scratch) const {
  Snapshot out;
  double wsum = 0.0;
  out.window_count = merge_window(scratch, &wsum);
  out.window_sum = wsum;
  out.total_count = total_count_.load(std::memory_order_relaxed);
  out.total_sum =
      static_cast<double>(total_sum_.load(std::memory_order_relaxed));

  std::uint64_t count = out.window_count;
  if (count == 0) {
    for (int b = 0; b < kBuckets; ++b) {
      scratch[b] =
          total_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
      count += scratch[b];
    }
  } else {
    out.from_window = true;
  }
  out.p50 = quantile_from(scratch, count, 0.50);
  out.p90 = quantile_from(scratch, count, 0.90);
  out.p99 = quantile_from(scratch, count, 0.99);
  out.p999 = quantile_from(scratch, count, 0.999);

  // Rate over the seconds the window actually covers: a fresh histogram
  // hasn't seen window_s seconds yet.
  const double elapsed_s =
      static_cast<double>(now_ns() - start_ns_) / 1e9;
  const double covered =
      std::max(std::min(opt_.window_s, elapsed_s), 1e-3);
  out.rate_per_s = static_cast<double>(out.window_count) / covered;
  return out;
}

void SlidingHistogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& e : slice_epoch_) e.store(~std::uint64_t{0});
  for (auto& s : slice_sum_) s.store(0, std::memory_order_relaxed);
  for (auto& t : total_) t.store(0, std::memory_order_relaxed);
  total_count_.store(0, std::memory_order_relaxed);
  total_sum_.store(0, std::memory_order_relaxed);
  start_ns_ = now_ns();
}

}  // namespace ecomp::obs
