// prof::Profiler — SIGPROF sampling + exact self-time profiling over the
// zone stacks declared in prof/zone.h.
//
// start() arms ITIMER_PROF (the kernel delivers SIGPROF against CPU
// time, so idle/blocked threads are never charged) and flips the zone
// mode on; the signal handler copies the interrupted thread's zone stack
// — plus a best-effort frame-pointer PC chain from the ucontext — into
// that thread's lock-free SPSC ring, and a collector thread drains the
// rings into a folded-stack aggregate every few milliseconds. stop()
// disarms the timer, drains what is left, and folds in the exact
// self-time table that zone push/pop maintained while timing mode was
// on. The folded output is FlameGraph/inferno-compatible
// ("frame;frame;frame count" lines); the self-time table is what the
// gated bench `self_time_pct` keys read (exact, so no sampling noise
// reaches the regression gate).
//
// One profile runs at a time (start() returns false otherwise). The
// SIGPROF disposition is installed once and kept — a pending tick after
// stop() hits an armed-flag check and is dropped.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ecomp::prof {

struct ProfilerOptions {
  int hz = 997;          ///< SIGPROF rate (prime, avoids lockstep)
  bool sampling = true;  ///< arm ITIMER_PROF + rings
  bool timing = true;    ///< exact self-time accounting on zone switches
  std::uint32_t ring_capacity = 4096;  ///< samples per thread ring
};

/// One row of the per-zone table: exact self time (timing mode) merged
/// with leaf sample counts (sampling mode), keyed by label content.
struct SelfRow {
  std::string label;
  std::uint64_t hits = 0;      ///< zone entries (timing mode)
  std::uint64_t self_ns = 0;   ///< exact self time
  double time_pct = 0.0;       ///< self_ns / total self_ns, percent
  std::uint64_t samples = 0;   ///< SIGPROF ticks with this zone on top
  double sample_pct = 0.0;     ///< samples / total samples, percent
};

struct ProfileReport {
  double duration_s = 0.0;
  int hz = 0;
  std::uint64_t samples = 0;   ///< stacks captured
  std::uint64_t dropped = 0;   ///< ticks lost (ring full / no ring)
  std::uint64_t truncated = 0; ///< pushes past kMaxZoneDepth
  std::uint64_t total_self_ns = 0;

  /// Folded stacks, root-first, lexicographically sorted (deterministic
  /// output for identical aggregates): "ecomp;outer;inner <count>".
  std::vector<std::pair<std::string, std::uint64_t>> folded;
  std::vector<SelfRow> self;  ///< sorted by self_ns, then samples, desc
  /// Best-effort symbolized interrupted PCs, count-desc. Frame-pointer
  /// quality: needs -fno-omit-frame-pointer; statics symbolize only
  /// with -rdynamic (the `ecomp` binary links with it).
  std::vector<std::pair<std::string, std::uint64_t>> pc_hot;

  /// FlameGraph-compatible collapsed-stack text (one line per stack).
  std::string to_folded() const;
  /// Human-readable self-time table + sampler counters.
  std::string to_table() const;
  /// time_pct for `label` (sample_pct when timing was off); 0 if absent.
  double self_pct(std::string_view label) const;
};

class Profiler {
 public:
  static Profiler& global();

  /// Begin a profile. Returns false (and does nothing) if one is
  /// already running or `opt` enables neither mode.
  bool start(const ProfilerOptions& opt = {});
  /// End the profile and aggregate everything captured since start().
  ProfileReport stop();
  bool running() const;

  /// Stacks captured since process start (across runs) — STATS surface.
  static std::uint64_t lifetime_samples();
  /// True while ITIMER_PROF is armed — STATS surface.
  static bool sampler_active();

 private:
  Profiler() = default;
};

/// Write report.to_folded() to `path`; throws ecomp-style
/// std::runtime_error on IO failure.
void write_folded(const std::string& path, const ProfileReport& report);

/// Peak resident set (VmHWM from /proc/self/status), or -1 off-Linux.
std::int64_t rss_peak_kb();

}  // namespace ecomp::prof
