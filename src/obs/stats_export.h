// obs::StatsSnapshot — the proxy STATS surface's payload, plus its three
// renderers (human text, JSON via the shared JsonWriter, and Prometheus
// text exposition). net::ProxyServer fills one of these per STATS
// request; `ecomp stats` fetches and re-renders the same shapes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/provenance.h"

namespace ecomp::obs {

/// Rendering formats accepted by the STATS verb and `ecomp stats`.
enum class StatsFormat { Text, Json, Prometheus };

/// Parse "text"|"json"|"prom" (defaulting to Text on anything else).
StatsFormat parse_stats_format(const std::string& s);

struct HistStat {
  std::string name;
  SlidingHistogram::Snapshot snap;
};

/// The STATS PROF section: profiler/memory/flight-recorder state.
/// `present` is false in ECOMP_OBS=OFF builds (section omitted).
struct ProfStats {
  bool present = false;
  std::int64_t rss_peak_kb = -1;          ///< VmHWM; -1 when unknown
  std::uint64_t samples_lifetime = 0;     ///< sampler stacks ever captured
  bool sampler_active = false;            ///< ITIMER_PROF currently armed
  std::uint64_t flight_recorded = 0;      ///< events seen by the recorder
};

/// One alert row of the STATS ALERTS section (mirrors obs::Alert; kept
/// separate so stats_export does not pull in the rules layer).
struct AlertStat {
  std::string rule;
  std::string series;
  std::string detail;
  double t_s = 0.0;
  double value = 0.0;
  double threshold = 0.0;
};

/// The STATS ADMISSION section: worker-pool admission control and the
/// graceful-degradation ladder (schema 3). `present` is false when the
/// proxy runs with unbounded admission (max_conns=0) — section omitted.
struct AdmissionStats {
  bool present = false;
  std::uint64_t workers = 0;    ///< worker-pool size
  std::uint64_t capacity = 0;   ///< max concurrent admitted connections
  std::uint64_t depth = 0;      ///< connections admitted right now
  std::uint64_t busy_total = 0; ///< connections shed with BUSY
  std::uint64_t degraded_level_total = 0;  ///< served at reduced level
  std::uint64_t degraded_raw_total = 0;    ///< served uncompressed
};

/// The STATS CACHE section: shared single-flight container cache
/// (schema 3). `present` is false when the cache is disabled.
struct CacheStats {
  bool present = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< lookups that became the builder
  std::uint64_t waits = 0;      ///< lookups that joined an in-flight build
  std::uint64_t builds = 0;     ///< builds published into the cache
  std::uint64_t evictions = 0;  ///< entries pushed out by capacity
  std::uint64_t bytes = 0;      ///< resident payload bytes
  std::uint64_t entries = 0;    ///< resident entry count
};

/// The STATS MONITOR section: continuous-monitoring state from
/// obs::Monitor. `present` is false when no monitor is attached
/// (ECOMP_OBS=OFF builds, or monitoring disabled) — section omitted.
struct MonitorStats {
  bool present = false;
  std::uint64_t ticks = 0;         ///< sampler cycles completed
  std::uint64_t alerts_total = 0;  ///< alerts fired since start
  /// Newest value of every tracked series, name-sorted.
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<AlertStat> alerts;   ///< recent alerts, oldest first
};

/// Point-in-time view of one proxy instance. Counters and histograms
/// are kept sorted by name so every rendering is byte-stable across
/// identical states.
struct StatsSnapshot {
  /// STATS payload schema version: bumped to 2 when provenance and the
  /// MONITOR/ALERTS sections were added, to 3 for the ADMISSION/CACHE
  /// sections, to 4 when the PROF allocation table was removed (fields
  /// are append-only; a removal bumps the version).
  int schema = 4;
  double uptime_s = 0.0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t errors_total = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  double energy_served_j = 0.0;  ///< ledgered transfer energy, joules

  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted
  std::vector<HistStat> histograms;                             ///< sorted
  ProfStats prof;        ///< PROF section (omitted unless prof.present)
  AdmissionStats admission;  ///< ADMISSION (omitted unless present)
  CacheStats cache;          ///< CACHE (omitted unless present)
  Provenance provenance; ///< build/run identity (satellite: stats schema)
  MonitorStats monitor;  ///< MONITOR/ALERTS (omitted unless present)
};

/// One JSON object (see docs/OBSERVABILITY.md for the schema).
std::string stats_to_json(const StatsSnapshot& s);
/// Aligned human-readable lines for the terminal.
std::string stats_to_text(const StatsSnapshot& s);
/// Prometheus text exposition: dotted names become underscored metric
/// names under the `ecomp_` prefix; quantiles become labeled samples.
std::string stats_to_prometheus(const StatsSnapshot& s);
/// Dispatch on `format`.
std::string render_stats(const StatsSnapshot& s, StatsFormat format);

}  // namespace ecomp::obs
