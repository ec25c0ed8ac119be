// Order statistics for the benchmark's latency samples. A failed op is
// recorded as +infinity, so it sorts past every real sample and counts
// as missing any latency limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (p in (0, 100]) of `v`; +inf entries are
/// failures. Returns 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Samples that lie beyond the nearest-rank p-th percentile: n - ceil(p n).
std::size_t beyond(std::size_t n, double p);

double median(std::vector<double> v);

/// The q-quantile (q in [0, 1]) of `v`, interpolating linearly between
/// order statistics; quantile(v, 0.5) is the median.
double quantile(std::vector<double> v, double q);

/// Timings taken over a run are summarised per window of `w`
/// consecutive samples (in completion order; the last window absorbs a
/// tail shorter than `w`, and fewer than `w` samples form one window).
/// The value reported is the `across`-quantile of the per-window values.
/// Interference from outside the program only ever slows a window down,
/// so the fast side of the windows (a low `across` for latencies, a high
/// one for rates) estimates the program's own speed with less of the
/// host's noise.

/// Per-window p-th percentile of `v`, then its `across`-quantile.
double windowed_percentile(const std::vector<double>& v, std::size_t w,
                           double p, double across);

/// Per-window sum(num) / sum(den), then its `across`-quantile. With
/// `den` the time each event took (or the gap since the one before),
/// this is a rate. Windows with nothing in `den` are left out.
double windowed_ratio(const std::vector<double>& num,
                      const std::vector<double>& den, std::size_t w,
                      double across);

}  // namespace perfbench
