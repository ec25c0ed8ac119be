#include "obs/stats_export.h"

#include <cstdio>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace ecomp::obs {
namespace {

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; our
/// dotted instrument names map dots (and anything else exotic) to
/// underscores, and the fixed "ecomp_" prefix guarantees no metric can
/// start with a digit regardless of what the instrument was called.
std::string prom_name(std::string_view name) {
  std::string out = "ecomp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus label values live inside double quotes; escape per the
/// exposition format (backslash, quote, newline).
std::string prom_label_value(std::string_view v) {
  std::string out;
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

StatsFormat parse_stats_format(const std::string& s) {
  if (s == "json") return StatsFormat::Json;
  if (s == "prom") return StatsFormat::Prometheus;
  return StatsFormat::Text;
}

std::string stats_to_json(const StatsSnapshot& s) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(s.schema);
  w.key("provenance").begin_object();
  w.key("git_sha").value(s.provenance.git_sha);
  w.key("build_type").value(s.provenance.build_type);
  w.key("hostname").value(s.provenance.hostname);
  w.key("obs_enabled").value(s.provenance.obs_enabled);
  w.end_object();
  w.key("uptime_s").value(s.uptime_s);
  w.key("connections_active").value(s.connections_active);
  w.key("connections_total").value(s.connections_total);
  w.key("requests_total").value(s.requests_total);
  w.key("errors_total").value(s.errors_total);
  w.key("faults_injected").value(s.faults_injected);
  w.key("bytes_sent").value(s.bytes_sent);
  w.key("bytes_recv").value(s.bytes_recv);
  w.key("energy_served_j").value(s.energy_served_j);
  w.key("counters").begin_object();
  for (const auto& [name, v] : s.counters) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : s.histograms) {
    w.key(h.name).begin_object();
    w.key("count").value(h.snap.total_count);
    w.key("sum").value(h.snap.total_sum);
    w.key("window_count").value(h.snap.window_count);
    w.key("rate_per_s").value(h.snap.rate_per_s);
    w.key("from_window").value(h.snap.from_window);
    w.key("p50").value(h.snap.p50);
    w.key("p90").value(h.snap.p90);
    w.key("p99").value(h.snap.p99);
    w.key("p999").value(h.snap.p999);
    w.end_object();
  }
  w.end_object();
  if (s.prof.present) {
    w.key("prof").begin_object();
    w.key("rss_peak_kb").value(s.prof.rss_peak_kb);
    w.key("samples_lifetime").value(s.prof.samples_lifetime);
    w.key("sampler_active").value(s.prof.sampler_active);
    w.key("flight_recorded").value(s.prof.flight_recorded);
    w.end_object();
  }
  if (s.admission.present) {
    w.key("admission").begin_object();
    w.key("workers").value(s.admission.workers);
    w.key("capacity").value(s.admission.capacity);
    w.key("depth").value(s.admission.depth);
    w.key("busy_total").value(s.admission.busy_total);
    w.key("degraded_level_total").value(s.admission.degraded_level_total);
    w.key("degraded_raw_total").value(s.admission.degraded_raw_total);
    w.end_object();
  }
  if (s.cache.present) {
    w.key("cache").begin_object();
    w.key("hits").value(s.cache.hits);
    w.key("misses").value(s.cache.misses);
    w.key("waits").value(s.cache.waits);
    w.key("builds").value(s.cache.builds);
    w.key("evictions").value(s.cache.evictions);
    w.key("bytes").value(s.cache.bytes);
    w.key("entries").value(s.cache.entries);
    w.end_object();
  }
  if (s.monitor.present) {
    w.key("monitor").begin_object();
    w.key("ticks").value(s.monitor.ticks);
    w.key("alerts_total").value(s.monitor.alerts_total);
    w.key("gauges").begin_object();
    for (const auto& [name, v] : s.monitor.gauges) w.key(name).value(v);
    w.end_object();
    w.key("alerts").begin_array();
    for (const auto& a : s.monitor.alerts) {
      w.begin_object();
      w.key("rule").value(a.rule);
      w.key("series").value(a.series);
      w.key("t_s").value(a.t_s);
      w.key("value").value(a.value);
      w.key("threshold").value(a.threshold);
      w.key("detail").value(a.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string stats_to_text(const StatsSnapshot& s) {
  std::ostringstream os;
  char buf[64];
  os << "schema              " << s.schema << "\n";
  os << "build               " << s.provenance.git_sha << " ("
     << s.provenance.build_type
     << (s.provenance.obs_enabled ? ", obs" : ", no-obs") << ")\n";
  std::snprintf(buf, sizeof buf, "%.1f", s.uptime_s);
  os << "uptime_s            " << buf << "\n";
  os << "connections_active  " << s.connections_active << "\n";
  os << "connections_total   " << s.connections_total << "\n";
  os << "requests_total      " << s.requests_total << "\n";
  os << "errors_total        " << s.errors_total << "\n";
  os << "faults_injected     " << s.faults_injected << "\n";
  os << "bytes_sent          " << s.bytes_sent << "\n";
  os << "bytes_recv          " << s.bytes_recv << "\n";
  std::snprintf(buf, sizeof buf, "%.6f", s.energy_served_j);
  os << "energy_served_j     " << buf << "\n";
  for (const auto& [name, v] : s.counters)
    os << "counter " << name << " " << v << "\n";
  for (const auto& h : s.histograms) {
    os << "hist " << h.name << " count=" << h.snap.total_count
       << " rate_per_s=" << json_number(h.snap.rate_per_s)
       << " p50=" << json_number(h.snap.p50)
       << " p90=" << json_number(h.snap.p90)
       << " p99=" << json_number(h.snap.p99)
       << " p999=" << json_number(h.snap.p999)
       << (h.snap.from_window ? "" : " (all-time)") << "\n";
  }
  if (s.prof.present) {
    os << "prof rss_peak_kb " << s.prof.rss_peak_kb << "\n";
    os << "prof sampler " << (s.prof.sampler_active ? "active" : "idle")
       << " samples=" << s.prof.samples_lifetime << "\n";
    os << "prof flight_recorded " << s.prof.flight_recorded << "\n";
  }
  if (s.admission.present) {
    os << "admission workers=" << s.admission.workers
       << " capacity=" << s.admission.capacity
       << " depth=" << s.admission.depth << "\n";
    os << "admission busy_total " << s.admission.busy_total << "\n";
    os << "admission degraded_level_total "
       << s.admission.degraded_level_total << "\n";
    os << "admission degraded_raw_total " << s.admission.degraded_raw_total
       << "\n";
  }
  if (s.cache.present) {
    os << "cache hits=" << s.cache.hits << " misses=" << s.cache.misses
       << " waits=" << s.cache.waits << " builds=" << s.cache.builds
       << " evictions=" << s.cache.evictions << "\n";
    os << "cache bytes=" << s.cache.bytes << " entries=" << s.cache.entries
       << "\n";
  }
  if (s.monitor.present) {
    os << "monitor ticks " << s.monitor.ticks << " alerts_total "
       << s.monitor.alerts_total << "\n";
    for (const auto& [name, v] : s.monitor.gauges)
      os << "monitor " << name << " " << json_number(v) << "\n";
    os << "ALERTS " << s.monitor.alerts.size() << "\n";
    for (const auto& a : s.monitor.alerts)
      os << "alert " << a.rule << " " << a.detail << "\n";
  }
  return os.str();
}

std::string stats_to_prometheus(const StatsSnapshot& s) {
  std::ostringstream os;
  // Exposition-format validity (what `promtool check metrics` enforces):
  // each metric family appears exactly once with one # HELP and one
  // # TYPE line before its samples, monotonic values are typed counter,
  // and sanitized names can never collide into a duplicate family — the
  // `seen` set drops any later claimant to an already-emitted name.
  std::set<std::string> seen;
  const auto begin_family = [&](const std::string& n, std::string_view help,
                                const char* type) {
    if (!seen.insert(n).second) return false;
    os << "# HELP " << n << " " << help << "\n";
    os << "# TYPE " << n << " " << type << "\n";
    return true;
  };
  const auto scalar = [&](std::string_view name, std::string_view help,
                          const char* type, const std::string& v) {
    const std::string n = prom_name(name);
    if (!begin_family(n, help, type)) return;
    os << n << " " << v << "\n";
  };
  const auto gauge = [&](std::string_view name, std::string_view help,
                         const std::string& v) {
    scalar(name, help, "gauge", v);
  };
  const auto counter = [&](std::string_view name, std::string_view help,
                           const std::string& v) {
    scalar(name, help, "counter", v);
  };
  {
    // Build identity as a constant-1 info gauge, the node_exporter idiom.
    const std::string n = prom_name("build_info");
    if (begin_family(n, "Build provenance (constant 1).", "gauge"))
      os << n << "{git_sha=\"" << prom_label_value(s.provenance.git_sha)
         << "\",build_type=\"" << prom_label_value(s.provenance.build_type)
         << "\"} 1\n";
  }
  gauge("stats_schema", "STATS payload schema version.",
        std::to_string(s.schema));
  gauge("uptime_seconds", "Proxy uptime.", json_number(s.uptime_s));
  gauge("connections_active", "Connections currently being served.",
        std::to_string(s.connections_active));
  counter("connections_total", "Connections accepted since start.",
          std::to_string(s.connections_total));
  counter("requests_total", "Requests parsed since start.",
          std::to_string(s.requests_total));
  counter("errors_total", "Requests that ended in an error reply.",
          std::to_string(s.errors_total));
  counter("faults_injected_total", "Injected wire faults hit.",
          std::to_string(s.faults_injected));
  counter("bytes_sent_total", "Payload bytes sent on the wire.",
          std::to_string(s.bytes_sent));
  counter("bytes_recv_total", "Payload bytes received on the wire.",
          std::to_string(s.bytes_recv));
  gauge("energy_served_joules", "Ledgered transfer energy served.",
        json_number(s.energy_served_j));
  if (s.prof.present) {
    gauge("prof_rss_peak_kb", "Peak resident set size (VmHWM).",
          std::to_string(s.prof.rss_peak_kb));
    counter("prof_samples_total", "Profiler stacks captured since start.",
            std::to_string(s.prof.samples_lifetime));
    gauge("prof_sampler_active", "1 while ITIMER_PROF is armed.",
          s.prof.sampler_active ? "1" : "0");
    counter("prof_flight_recorded_total",
            "Events seen by the flight recorder.",
            std::to_string(s.prof.flight_recorded));
  }
  if (s.admission.present) {
    gauge("admission_workers", "Proxy worker-pool size.",
          std::to_string(s.admission.workers));
    gauge("admission_capacity", "Max concurrent admitted connections.",
          std::to_string(s.admission.capacity));
    gauge("admission_depth", "Connections admitted right now.",
          std::to_string(s.admission.depth));
    counter("admission_busy_total", "Connections shed with BUSY.",
            std::to_string(s.admission.busy_total));
    counter("admission_degraded_level_total",
            "Responses served at a reduced compression level.",
            std::to_string(s.admission.degraded_level_total));
    counter("admission_degraded_raw_total",
            "Responses served with compression skipped.",
            std::to_string(s.admission.degraded_raw_total));
  }
  if (s.cache.present) {
    counter("cache_hits_total", "Container cache hits.",
            std::to_string(s.cache.hits));
    counter("cache_misses_total", "Container cache misses (became builder).",
            std::to_string(s.cache.misses));
    counter("cache_waits_total", "Lookups that joined an in-flight build.",
            std::to_string(s.cache.waits));
    counter("cache_builds_total", "Builds published into the cache.",
            std::to_string(s.cache.builds));
    counter("cache_evictions_total", "Entries evicted by capacity.",
            std::to_string(s.cache.evictions));
    gauge("cache_bytes", "Resident cached payload bytes.",
          std::to_string(s.cache.bytes));
    gauge("cache_entries", "Resident cache entry count.",
          std::to_string(s.cache.entries));
  }
  if (s.monitor.present) {
    counter("monitor_ticks_total", "Monitor sampler cycles completed.",
            std::to_string(s.monitor.ticks));
    counter("alerts_total", "Watchdog alerts fired since start.",
            std::to_string(s.monitor.alerts_total));
    if (!s.monitor.gauges.empty()) {
      const std::string n = prom_name("monitor");
      if (begin_family(n, "Newest sample of each monitored series.",
                       "gauge"))
        for (const auto& [name, v] : s.monitor.gauges)
          os << n << "{series=\"" << prom_label_value(name) << "\"} "
             << json_number(v) << "\n";
    }
  }
  for (const auto& [name, v] : s.counters)
    counter(name, "Registry counter.", std::to_string(v));
  for (const auto& h : s.histograms) {
    const std::string n = prom_name(h.name);
    // A summary family owns three sample names; claim them all so no
    // later scalar can collide into the family.
    if (!seen.insert(n).second) continue;
    seen.insert(n + "_count");
    seen.insert(n + "_sum");
    os << "# HELP " << n << " Sliding-window summary.\n";
    os << "# TYPE " << n << " summary\n";
    const std::pair<const char*, double> qs[] = {
        {"0.5", h.snap.p50}, {"0.9", h.snap.p90},
        {"0.99", h.snap.p99}, {"0.999", h.snap.p999}};
    for (const auto& [q, v] : qs)
      os << n << "{quantile=\"" << q << "\"} " << json_number(v) << "\n";
    os << n << "_count " << h.snap.total_count << "\n";
    os << n << "_sum " << json_number(h.snap.total_sum) << "\n";
  }
  return os.str();
}

std::string render_stats(const StatsSnapshot& s, StatsFormat format) {
  switch (format) {
    case StatsFormat::Json: return stats_to_json(s);
    case StatsFormat::Prometheus: return stats_to_prometheus(s);
    case StatsFormat::Text: break;
  }
  return stats_to_text(s);
}

}  // namespace ecomp::obs
