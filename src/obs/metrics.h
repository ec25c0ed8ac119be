// obs::Registry — process-wide named counters, gauges, and sliding
// histograms behind lock-free atomics. Hot paths record through the
// ECOMP_COUNT*/ECOMP_SLIDING_* macros (a static reference caches the
// registry lookup, so steady-state cost is one relaxed atomic op); with
// the CMake option ECOMP_OBS=OFF the macros compile to true no-ops and
// `kObsEnabled` lets call sites `if constexpr` away their bookkeeping.
//
// Naming scheme: lowercase dotted paths, `<layer>.<thing>[_<unit>]` —
// e.g. "lz77.match_probes", "net.bytes_sent" (see docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace ecomp::obs {

#if defined(ECOMP_OBS_ENABLED)
inline constexpr bool kObsEnabled = true;
#else
inline constexpr bool kObsEnabled = false;
#endif

/// Monotonically increasing event count. Thread-safe.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written signed value (e.g. a configured block size). Thread-safe.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Named-instrument registry. Instruments are created on first use and
/// live for the life of the process; reset() zeroes values but never
/// invalidates references, so the macros' cached statics stay valid.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Sliding-window quantile histogram (see obs/histogram.h). `opt`
  /// applies on first registration only.
  SlidingHistogram& sliding(std::string_view name,
                            SlidingHistogram::Options opt = {});

  /// Zero every instrument (benches diff before/after a workload).
  void reset();

  /// {"counters":{...},"gauges":{...},"sliding":{...}} — sliding
  /// histograms carry count, sum, window rate and quantiles.
  std::string to_json() const;

  /// Counter name -> value snapshot (programmatic diffing in tests).
  std::map<std::string, std::uint64_t> counter_values() const;

  /// Name-sorted snapshots of every sliding histogram (the STATS
  /// surface merges these with its instance histograms).
  std::vector<std::pair<std::string, SlidingHistogram::Snapshot>>
  sliding_snapshots() const;

  // Allocation-free iteration (obs::Monitor's sample path): the
  // callback runs under the registry mutex per instrument, name-sorted.
  // Callbacks must not call back into the registry.
  void visit_counters(
      const std::function<void(std::string_view, std::uint64_t)>& fn) const;
  void visit_gauges(
      const std::function<void(std::string_view, std::int64_t)>& fn) const;
  void visit_sliding(
      const std::function<void(std::string_view, const SlidingHistogram&)>& fn)
      const;

 private:
  Registry() = default;

  mutable std::mutex mu_;  // guards the maps; instruments are atomic
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<SlidingHistogram>, std::less<>>
      sliding_;
};

}  // namespace ecomp::obs

// Recording macros. The static reference makes the map lookup a
// once-per-callsite cost; afterwards each hit is one relaxed atomic.
#if defined(ECOMP_OBS_ENABLED)
#define ECOMP_COUNT_N(name, n)                                       \
  do {                                                               \
    static ::ecomp::obs::Counter& ecomp_obs_c_ =                     \
        ::ecomp::obs::Registry::global().counter(name);              \
    ecomp_obs_c_.add(static_cast<std::uint64_t>(n));                 \
  } while (0)
#define ECOMP_COUNT(name) ECOMP_COUNT_N(name, 1)
#define ECOMP_GAUGE_SET(name, v)                                     \
  do {                                                               \
    static ::ecomp::obs::Gauge& ecomp_obs_g_ =                       \
        ::ecomp::obs::Registry::global().gauge(name);                \
    ecomp_obs_g_.set(static_cast<std::int64_t>(v));                  \
  } while (0)
#define ECOMP_SLIDING_OBSERVE(name, v)                               \
  do {                                                               \
    static ::ecomp::obs::SlidingHistogram& ecomp_obs_sh_ =           \
        ::ecomp::obs::Registry::global().sliding(name);              \
    ecomp_obs_sh_.record(static_cast<std::uint64_t>(v));             \
  } while (0)
#define ECOMP_OBS_CONCAT2_(a, b) a##b
#define ECOMP_OBS_CONCAT2(a, b) ECOMP_OBS_CONCAT2_(a, b)
/// Scoped timer: records the enclosing block's duration (µs) into the
/// named sliding histogram. Declares locals — use at block scope.
#define ECOMP_SLIDING_TIMER(name)                                    \
  static ::ecomp::obs::SlidingHistogram&                             \
      ECOMP_OBS_CONCAT2(ecomp_obs_shr_, __LINE__) =                  \
          ::ecomp::obs::Registry::global().sliding(name);            \
  ::ecomp::obs::SlidingTimer ECOMP_OBS_CONCAT2(ecomp_obs_sht_,       \
                                               __LINE__)(            \
      ECOMP_OBS_CONCAT2(ecomp_obs_shr_, __LINE__))
#else
// `sizeof` keeps the operands syntactically used (no -Wunused noise)
// without evaluating them.
#define ECOMP_COUNT_N(name, n) do { (void)sizeof(name); (void)sizeof(n); } while (0)
#define ECOMP_COUNT(name) do { (void)sizeof(name); } while (0)
#define ECOMP_GAUGE_SET(name, v) do { (void)sizeof(name); (void)sizeof(v); } while (0)
#define ECOMP_SLIDING_OBSERVE(name, v) \
  do { (void)sizeof(name); (void)sizeof(v); } while (0)
#define ECOMP_SLIDING_TIMER(name) do { (void)sizeof(name); } while (0)
#endif
