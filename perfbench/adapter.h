// The benchmark's only contact with the ecomp program. Everything the
// benchmark does to the system under test goes through this interface:
// corpus generation, proxy start/stop and stats, the three client entry
// points (download, download_resilient, upload_resilient) and their
// traced twins, the codecs, the energy pricing, and the metrics
// registry. When the program's API moves, this file and adapter.cc are
// the ones to update. No ecomp header is included from here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ops.h"
#include "spans.h"

namespace perfbench {

using Buf = std::vector<std::uint8_t>;

struct File {
  std::string name;
  Buf data;
};

/// The paper's Table 2 corpus at `scale` (workload::generate).
std::vector<File> make_corpus(double scale);

struct BuildInfo {
  std::string git_sha;
  std::string simd_level;
  bool obs_enabled = false;
};
BuildInfo build_info();

/// ProxyOptions the workloads set; everything else keeps its default.
struct ServerConfig {
  bool precompress = false;
  unsigned workers = 2;
  bool cache = true;  ///< false: cache_capacity_bytes = 0
};

/// Counters the proxy already exposes through stats(), whose cache
/// section is cache_stats().
struct ServerCounters {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_waits = 0;
  std::uint64_t cache_builds = 0;
  /// Worker time, from net.proxy.request_us since the proxy started.
  double request_ms_p50 = 0.0;
  double request_ms_p99 = 0.0;
};

/// A loopback net::ProxyServer serving `files`.
class Proxy {
 public:
  Proxy(const std::vector<File>& files, const ServerConfig& cfg);
  ~Proxy();
  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  std::uint16_t port() const;
  /// Seconds the ProxyServer constructor took (the §3 precompress pass
  /// included); filling the FileStore is input staging and excluded.
  double setup_s() const;
  ServerCounters counters() const;
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct Block {
  std::uint32_t raw = 0;
  std::uint32_t payload = 0;
  bool compressed = false;
};

struct Transfer {
  Buf data;                   ///< decoded bytes
  std::uint64_t wire = 0;     ///< payload bytes received
  std::vector<Block> blocks;  ///< selective mode: per-block decisions
};

/// One GET through `client` (Download or Resilient). With a null sink
/// it calls the entry point itself; with a sink it runs the traced twin
/// assembled from public calls, one span per call. Throws on failure.
Transfer get(std::uint16_t port, const std::string& name, Mode mode,
             Client client, SpanSink* sink);

/// One PUT through upload_resilient (or its traced twin). Returns the
/// wire bytes of the successful attempt; throws when retries run out.
std::uint64_t put(std::uint16_t port, const std::string& name,
                  const Buf& data, SpanSink* sink);

struct CodecResult {
  Buf decoded;
  std::uint64_t compressed = 0;
  // CPU time of the calling thread inside Codec::compress / decompress:
  // the calls are single-threaded, and on a shared virtual machine wall
  // time also counts the host descheduling the virtual CPU.
  double encode_s = 0.0;
  double decode_s = 0.0;
};

/// The three universal codecs from compress::make_codec.
class Codecs {
 public:
  Codecs();
  ~Codecs();
  Codecs(const Codecs&) = delete;
  Codecs& operator=(const Codecs&) = delete;
  CodecResult round_trip(Codec c, const Buf& data, SpanSink* sink) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Modeled handheld joules (sim::TransferSimulator, iPAQ at 11 Mb/s)
/// for one op, priced the way its client behaved. `on_demand` marks a
/// GET the proxy compressed for this request.
double price_get(std::uint64_t raw, std::uint64_t wire,
                 const std::vector<Block>& blocks, Mode mode, Client client,
                 bool on_demand);
double price_put(std::uint64_t raw, std::uint64_t wire);
double price_codec(Codec c, std::uint64_t raw, std::uint64_t compressed);

/// Seconds the proxy's own encode call takes on `data` for a missed
/// GET of `mode` at level 9 (selective_compress or DeflateCodec).
double replay_encode_s(const Buf& data, Mode mode);

/// Registry counters; nullopt in an ECOMP_OBS=OFF build.
std::optional<std::map<std::string, std::uint64_t>> registry_counters();
/// p99 of a registry sliding histogram; nullopt when OFF or unknown.
std::optional<double> registry_sliding_p99(const std::string& name);
void registry_reset();

/// The request frame `client` sends for (mode, name) under a fixed
/// trace id, captured on a bare net::Listener. `traced` picks the
/// traced twin instead of the entry point. Test support.
std::string capture_request(Client client, Mode mode, const std::string& name,
                            bool traced, std::uint64_t trace_id);

}  // namespace perfbench
