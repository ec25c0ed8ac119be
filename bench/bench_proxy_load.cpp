// Extension bench: the worker-pool proxy under client concurrency.
// Spins a real loopback ProxyServer (workers=4, admission cap 8) and
// drives N in {1, 10, 100} concurrent clients against it, reporting
// per-client latency percentiles, the admission counters (BUSY sheds,
// degradation-ladder hits), and the wire energy of the controlled N=1
// transfer priced by the paper's 11 Mb/s model.
//
// Sidecar gating: the N=1 phase is a single resilient client against an
// idle, precompressed server — its wire bytes are deterministic (deflate
// is deterministic, the corpus is seeded), so `n1_energy_j` is a gated
// regression key. Latency keys end in `_us` and the admission counters
// are scheduler-dependent, so benchdiff reports but never gates them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "core/energy_model.h"
#include "core/planner.h"
#include "net/proxy.h"
#include "workload/generator.h"

using namespace ecomp;
using namespace ecomp::bench;

namespace {

constexpr const char* kFile = "page.xml";

std::unique_ptr<net::ProxyServer> make_server(const Bytes& data) {
  net::FileStore store;
  store.put(kFile, data);
  net::ProxyOptions opt;
  opt.workers = 4;
  opt.max_conns = 8;
  opt.busy_retry_ms = 2;
  opt.precompress = true;  // warm the canonical containers
  return std::make_unique<net::ProxyServer>(
      std::move(store),
      core::make_selective_policy(core::EnergyModel::paper_11mbps()), opt);
}

/// download() (one attempt, resume off) with a bounded retry-on-BUSY
/// loop: without resume the client sends the degradable plain GET, not
/// GET-RANGE, so the stampede actually exercises the degradation ladder.
Bytes download_retry_busy(std::uint16_t port, const char* mode) {
  for (int i = 0; i < 500; ++i) {
    try {
      return net::download(port, kFile, mode);
    } catch (const Error& e) {
      if (std::string(e.what()).find("BUSY") == std::string::npos) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  throw Error("bench: BUSY never cleared");
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(p / 100.0 * v.size()));
  return v[idx];
}

struct Phase {
  std::vector<double> lat_us;
  obs::StatsSnapshot stats;
};

/// N concurrent clients, fresh server per phase so the admission
/// counters are per-phase, not cumulative.
Phase run_phase(const Bytes& data, int n) {
  auto server = make_server(data);
  Phase out;
  out.lat_us.resize(static_cast<std::size_t>(n));
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    clients.emplace_back([&, i] {
      const char* mode = (i % 3 == 0) ? "full" : "selective";
      const auto t0 = std::chrono::steady_clock::now();
      try {
        const Bytes got = download_retry_busy(server->port(), mode);
        if (got != data) failures.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
      out.lat_us[static_cast<std::size_t>(i)] =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count();
    });
  for (auto& t : clients) t.join();
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_proxy_load: %d/%d clients failed\n",
                 failures.load(), n);
    std::abort();
  }
  out.stats = server->stats();
  server->stop();
  return out;
}

}  // namespace

int main() {
  const double scale = corpus_scale();
  const Bytes data = workload::generate_kind(
      workload::FileKind::Xml,
      static_cast<std::size_t>(2e6 * scale), /*seed=*/7, 0.4);
  const core::EnergyModel model = core::EnergyModel::paper_11mbps();

  BenchReport report("proxy_load");
  report.note("corpus", "xml, seed 7");
  report.note("server", "workers=4 max_conns=8 precompress");

  std::printf("=== Extension: worker-pool proxy under load ===\n");
  std::printf("%.1f KB xml, workers=4, admission cap 8\n\n",
              static_cast<double>(data.size()) / 1e3);
  std::printf("%6s %12s %12s %10s %10s %10s\n", "N", "p50 (ms)",
              "p99 (ms)", "busy", "degr lvl", "degr raw");
  print_rule(66);

  // Controlled N=1 phase first: deterministic wire bytes -> the gated
  // energy key. The resilient client reports bytes-on-wire directly.
  {
    auto server = make_server(data);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = net::download_resilient(
        server->port(), kFile, "selective", net::TransferPolicy{});
    const double lat_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    server->stop();
    if (outcome.data != data) {
      std::fprintf(stderr, "bench_proxy_load: N=1 payload mismatch\n");
      std::abort();
    }
    const double wire_mb =
        static_cast<double>(outcome.stats.bytes_on_wire) / 1e6;
    const double raw_mb = static_cast<double>(data.size()) / 1e6;
    report.headline("n1_latency_us", lat_us);
    report.headline("n1_wire_mb", wire_mb);
    report.headline("n1_raw_mb", raw_mb);
    report.headline("n1_energy_j", model.download_energy_j(wire_mb));
    report.headline("n1_j_per_mb",
                    model.download_energy_j(wire_mb) / raw_mb);
    std::printf("%6d %12.2f %12.2f %10s %10s %10s\n", 1, lat_us / 1e3,
                lat_us / 1e3, "-", "-", "-");
  }

  for (const int n : {10, 100}) {
    const Phase ph = run_phase(data, n);
    const double p50 = percentile(ph.lat_us, 50);
    const double p99 = percentile(ph.lat_us, 99);
    const std::string pre = "n" + std::to_string(n) + "_";
    report.headline(pre + "p50_us", p50);
    report.headline(pre + "p99_us", p99);
    report.headline(pre + "busy_total",
                    static_cast<double>(ph.stats.admission.busy_total));
    report.headline(
        pre + "degraded_level_total",
        static_cast<double>(ph.stats.admission.degraded_level_total));
    report.headline(
        pre + "degraded_raw_total",
        static_cast<double>(ph.stats.admission.degraded_raw_total));
    std::printf("%6d %12.2f %12.2f %10llu %10llu %10llu\n", n, p50 / 1e3,
                p99 / 1e3,
                static_cast<unsigned long long>(ph.stats.admission.busy_total),
                static_cast<unsigned long long>(
                    ph.stats.admission.degraded_level_total),
                static_cast<unsigned long long>(
                    ph.stats.admission.degraded_raw_total));
  }

  report.write();
  return 0;
}
