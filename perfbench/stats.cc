#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {
namespace {

std::size_t rank_of(std::size_t n, double p) {
  // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx = rank_of(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

std::size_t beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= v.size()) return v[lo];
  if (std::isinf(v[lo + 1])) return v[lo + 1];  // a failed window
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

namespace {

/// [begin, end) of each window of `w` over n items; the tail joins the
/// last full window.
std::vector<std::pair<std::size_t, std::size_t>> windows(std::size_t n,
                                                         std::size_t w) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (n == 0) return out;
  const std::size_t k = std::max<std::size_t>(1, w ? n / w : 1);
  for (std::size_t i = 0; i < k; ++i)
    out.emplace_back(i * w, i + 1 == k ? n : (i + 1) * w);
  return out;
}

}  // namespace

double windowed_percentile(const std::vector<double>& v, std::size_t w,
                           double p, double across) {
  std::vector<double> per;
  for (const auto& [b, e] : windows(v.size(), w))
    per.push_back(percentile(std::vector<double>(v.begin() + b, v.begin() + e), p));
  return quantile(per, across);
}

double windowed_ratio(const std::vector<double>& num,
                      const std::vector<double>& den, std::size_t w,
                      double across) {
  std::vector<double> per;
  for (const auto& [b, e] : windows(num.size(), w)) {
    double n = 0, d = 0;
    for (std::size_t i = b; i < e; ++i) {
      n += num[i];
      d += den[i];
    }
    if (d > 0) per.push_back(n / d);
  }
  return quantile(per, across);
}

}  // namespace perfbench
