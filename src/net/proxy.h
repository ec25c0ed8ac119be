// A working proxy server + download/upload client over loopback TCP —
// the §2 topology (Dell proxy ⇄ iPAQ) with the radio replaced by
// localhost.
//
// Protocol (control frames are u32-length-prefixed):
//   download: "GET-RANGE <mode> <name> <offset>"  mode ∈ { raw | full |
//     selective } — fetch the wire payload from a byte offset, so an
//     interrupted download keeps what it has.
//     raw/full  → status "OK <remaining> <total> <crc32>" (crc32 of the
//                 whole payload, so even raw mode is verifiable), then
//                 the remaining bytes as one length-framed payload
//     selective → status "OK stream", then container bytes from the
//                 offset, unframed; the client's streaming decoder
//                 knows when the container ends. A cache miss at
//                 offset 0 streams while it encodes (§5's on-demand
//                 overlap, for real); past 0 the container is built
//                 first, so "ERR bad offset" precedes any status.
//   "GET <mode> <name>" is GET-RANGE at offset 0 that the degradation
//     ladder (below) may serve cheaper; GET-RANGE never degrades, so a
//     resume cannot splice two different containers.
//   upload:   "PUT <name>", then a streamed selective container; reply
//             "OK stored <bytes>" once decoded and stored.
//   overload: a connection refused by admission control receives a
//             single "BUSY <retry-after-ms>" frame (before the request
//             is even read) and is closed. Resilient clients honor the
//             retry-after in their backoff and try again.
//   Malformed, unknown, or failing requests get "ERR <reason>" and the
//   connection is dropped; the server never dies with a client.
//
// Grammar: a request line is whitespace-separated tokens, exactly
//   GET <mode> <name> | GET-RANGE <mode> <name> <offset> | PUT <name> |
//   STATS [<format>]
// plus at most one trailing trace token (below). <offset> is decimal
// digits only and must fit 64 bits. Anything else — an extra or
// missing token, a bad offset, a malformed trace token — gets
// "ERR bad request".
//
// Limits: a control frame (request or status) is at most
// kMaxControlFrame (64 KB), else "ERR bad frame"; a length-framed
// payload (raw/full) is below 4 GiB (kMaxFramedPayload), else
// "ERR payload too large" before any status.
//
// raw        — original bytes
// full       — one deflate member for the whole file
// selective  — Fig. 10 block container (what the streaming interleaved
//              decoder consumes)
//   stats:    "STATS [text|json|prom]" — live telemetry snapshot. Reply
//             "OK <n>", then the rendered payload as one frame (may
//             exceed kMaxControlFrame; fetch with a larger cap). STATS
//             is subject to admission control like any other request.
//
// Concurrency: connections are served by a worker pool (ProxyOptions::
// workers) fed from the accept thread through a bounded admission
// queue (ProxyOptions::max_conns). Above the degradation watermarks,
// new requests are served at a cheaper codec level, then with
// compression skipped entirely (ledgered, so the energy cost of
// shedding is visible), before outright BUSY shedding. A shared
// single-flight LRU cache (net::ContainerCache) makes N concurrent
// requests for the same payload compress once.
//
// Tracing: a request line may end with an optional `trace=<16hex>`
// token (minted client-side, see obs::TraceContext); a last token that
// starts with "trace=" is always read as one. The proxy strips it, runs
// the request under that trace, echoes the token at the end of every
// reply status, and stamps it into its span tracer and JSONL event log.
// Requests without the token behave exactly as before.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "compress/selective.h"
#include "net/cache.h"
#include "net/fault.h"
#include "net/socket.h"
#include "obs/events.h"
#include "obs/histogram.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace ecomp::obs {
class Monitor;  // obs/monitor.h — only linked in ECOMP_OBS=ON builds
}
namespace ecomp::par {
class ThreadPool;  // par/thread_pool.h — the connection worker pool
}

namespace ecomp::net {

/// Continuous-monitoring knobs for the proxy's embedded obs::Monitor
/// (sampler + watchdog; see docs/MONITORING.md). The monitor exists
/// only in ECOMP_OBS=ON builds — in OFF builds the config is accepted
/// and ignored so call sites need no guards.
struct MonitorConfig {
  std::uint32_t cadence_ms = 1000;  ///< sampler period
  /// Liveness: alert when an active connection makes no wire progress
  /// for this long (Delay faults, dead peers).
  double stall_timeout_s = 5.0;
};

/// Serving knobs for ProxyServer (see docs/ROBUSTNESS.md §admission).
struct ProxyOptions {
  /// TCP port to bind on loopback; 0 = pick an ephemeral port (read it
  /// back via ProxyServer::port()).
  std::uint16_t port = 0;
  std::size_t block_size = compress::kDefaultBlockSize;
  /// Build every container at startup and serve from the cache (§3's
  /// "compressed a priori and stored on the proxy" arrangement).
  bool precompress = false;
  /// Compression threads per request (the parallel block pipeline);
  /// wire bytes are byte-identical to the serial encoder's.
  unsigned threads = 1;
  /// Connection worker threads. 1 keeps the legacy one-at-a-time
  /// service order (connections queue, none refused when max_conns=0).
  unsigned workers = 1;
  /// Admission capacity K: connections in service + queued. 0 =
  /// unbounded (never BUSY, never degrade) — the legacy behavior.
  std::size_t max_conns = 0;
  /// Load = (in-flight connections)/K at admission time. At or above
  /// these fractions a GET is served at deflate level 1, then with
  /// compression skipped entirely (stored blocks / identity member).
  double degrade_level_watermark = 0.5;
  double degrade_raw_watermark = 0.75;
  /// Retry-after hint in the BUSY reply.
  std::uint32_t busy_retry_ms = 50;
  /// stop() waits this long for in-flight connections before breaking
  /// their sockets.
  std::uint32_t drain_deadline_ms = 5000;
  /// Per-connection socket deadlines (SO_RCVTIMEO/SO_SNDTIMEO) on the
  /// server side; 0 = none. A dead peer then costs a worker at most
  /// this long.
  std::uint32_t io_timeout_ms = 0;
  /// Byte budget of the shared single-flight container cache.
  std::size_t cache_capacity_bytes = 64 * 1024 * 1024;
  MonitorConfig monitor;
};

/// In-memory file store the proxy serves from (and uploads land in).
/// Internally synchronized: GET workers and PUT workers race on it.
class FileStore {
 public:
  FileStore() = default;
  FileStore(const FileStore& o) : files_(o.snapshot()) {}
  FileStore(FileStore&& o) noexcept : files_(std::move(o.files_)) {}
  FileStore& operator=(const FileStore&) = delete;

  void put(std::string name, Bytes data);
  /// The named file's bytes; throws if absent. Shared, not borrowed: a
  /// concurrent PUT may replace the entry while a GET streams it.
  std::shared_ptr<const Bytes> get(const std::string& name) const;
  bool contains(const std::string& name) const;
  std::map<std::string, std::shared_ptr<const Bytes>> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Bytes>> files_;
};

/// Serves GET/PUT requests until stopped. The accept loop runs on an
/// internal thread and feeds a worker pool through a bounded admission
/// queue. By default compression happens on demand per request (§5),
/// memoized in the shared container cache; with `precompress` the
/// containers are built once at startup (§3).
class ProxyServer {
 public:
  ProxyServer(FileStore store, compress::SelectivePolicy policy,
              ProxyOptions options);
  /// Legacy signature (sequential service order: one worker, unbounded
  /// admission). `threads` > 1 compresses selective containers on a
  /// thread pool; the wire bytes are byte-identical to the serial
  /// encoder's at any thread count.
  ProxyServer(FileStore store, compress::SelectivePolicy policy,
              std::size_t block_size = compress::kDefaultBlockSize,
              bool precompress = false, unsigned threads = 1,
              MonitorConfig monitor = {});
  ~ProxyServer();
  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Stop accepting, drain in-flight connections (bounded by
  /// options.drain_deadline_ms, after which their sockets are broken),
  /// and join every thread (idempotent).
  void stop();

  /// Arm fault injection (testing): subsequent accepted connections ask
  /// the injector for a FaultChannel (channel_for(conn), so index-
  /// targeted injectors can pick a victim among concurrent clients).
  /// Pass nullptr to disarm.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Attach a proxy-side JSONL event log (non-owning; the caller keeps
  /// it alive past the server). Pass nullptr to detach. Instance-based
  /// so several proxies in one process keep separate logs.
  void set_event_log(obs::EventLog* log);

  /// Point-in-time telemetry snapshot — what the STATS verb serves.
  /// The net.proxy.*_us histograms cover this instance's requests only;
  /// counters and the other histograms mirror the process-wide registry.
  obs::StatsSnapshot stats() const;

  /// The embedded monitor (nullptr in ECOMP_OBS=OFF builds).
  obs::Monitor* monitor() const { return monitor_.get(); }

  /// Shared container cache counters (single-flight test surface).
  ContainerCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  /// Degradation ladder rung chosen at admission time.
  enum class Degrade { None, Level, Raw };

  /// Live-connection registry entry: progress words for the per-
  /// connection stall watchdog, plus the fd so a drain past its
  /// deadline can break the socket from outside the worker.
  struct ConnState {
    std::atomic<std::uint64_t> active_since_ns{0};
    std::atomic<std::uint64_t> progress_ns{0};
    std::atomic<int> fd{-1};
  };

  /// What handle_request learned about a request — drives the per-mode
  /// latency attribution, error accounting, and the close event.
  struct ReqInfo {
    bool streaming = false;  ///< status frame sent; payload may follow
    bool error = false;      ///< replied ERR without throwing
    std::string mode;        ///< raw|full|selective|put|stats ("" = unparsed)
    std::string name;
    std::size_t raw_bytes = 0;
    std::size_t wire_bytes = 0;
  };

  void serve();
  void handle(Socket client, std::uint64_t conn, Degrade degrade);
  /// Serve one parsed request line (split_request's tokens; none for a
  /// line outside the grammar).
  void handle_request(Socket& client, const std::vector<std::string>& req,
                      ReqInfo* info, std::uint64_t conn, Degrade degrade,
                      ConnState& state);
  void emit(const obs::Event& e) const;
  /// Ledgered device-side energy estimate for a served download, J.
  double estimate_request_j(const std::string& mode, std::size_t raw_bytes,
                            std::size_t wire_bytes) const;
  /// Build/start the embedded monitor (ON builds; no-op otherwise).
  void start_monitor(const MonitorConfig& cfg);
  /// Refuse `client` with "BUSY <retry-after-ms>" and count the shed.
  void shed(Socket client, std::uint64_t conn);
  /// The cache key of one payload variant ("\x1f" keeps names from
  /// colliding with variant tags).
  std::string cache_key(const std::string& name, const char* variant) const;

  FileStore store_;
  compress::SelectivePolicy policy_;
  ProxyOptions options_;
  ContainerCache cache_;
  Listener listener_;
  std::atomic<bool> stopping_{false};
  /// Set when stop()'s drain deadline passes: still-queued connections
  /// are refused instead of served.
  std::atomic<bool> drain_expired_{false};
  std::mutex fault_mu_;
  std::shared_ptr<FaultInjector> fault_injector_;

  /// Connection worker pool; its bounded queue is the admission queue.
  std::unique_ptr<par::ThreadPool> pool_;
  /// Connections admitted and not yet finished (queued + in service).
  std::atomic<std::uint64_t> admitted_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_;

  /// Live-connection registry (per-connection stall telemetry and the
  /// drain-deadline socket break).
  mutable std::mutex conns_mu_;
  std::map<std::uint64_t, std::shared_ptr<ConnState>> conns_;

  // ---- instance telemetry (the STATS surface) ----
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::atomic<obs::EventLog*> events_{nullptr};
  std::atomic<std::uint64_t> conns_total_{0};
  std::atomic<std::uint64_t> conns_active_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> errors_total_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
  std::atomic<std::uint64_t> energy_served_uj_{0};  ///< microjoules
  // ---- admission/degradation telemetry ----
  std::atomic<std::uint64_t> conns_busy_{0};           ///< shed with BUSY
  std::atomic<std::uint64_t> degraded_level_total_{0};
  std::atomic<std::uint64_t> degraded_raw_total_{0};

  // ---- monitoring (the J/MB-served gauge and stall watchdog) ----
  /// Raw bytes of downloads that completed without error — the useful
  /// payload the energy above was spent serving.
  std::atomic<std::uint64_t> bytes_ok_raw_{0};
  /// Wire bytes burned on connections that ended in an error: sent but
  /// useless, so they raise measured J/MB-served under faults.
  std::atomic<std::uint64_t> bytes_waste_wire_{0};
  /// Download-only slice of the energy ledger (PUTs excluded), µJ.
  std::atomic<std::uint64_t> energy_down_uj_{0};
  /// Embedded sampler/watchdog. shared_ptr keeps obs::Monitor an
  /// incomplete type here: its deleter is bound at construction (in
  /// proxy.cc, ON builds only), so OFF builds reference no monitor
  /// symbols at all.
  std::shared_ptr<obs::Monitor> monitor_;
  /// Request latency: every request, then raw, full, selective, put.
  std::array<obs::SlidingHistogram, 5> latency_us_;

  std::thread thread_;
};

/// Client-side download statistics.
struct DownloadStats {
  std::size_t bytes_on_wire = 0;   ///< payload bytes received
  std::size_t bytes_decoded = 0;   ///< original bytes reconstructed
  std::size_t blocks = 0;          ///< blocks decoded (selective mode)
  std::uint64_t trace_id = 0;      ///< id sent with the request (0 = none)
  bool trace_echoed = false;       ///< proxy echoed the id back
  /// Per-block sizes/decisions (selective mode only) — feed these to
  /// sim::TransferSimulator::download_selective for energy estimates.
  std::vector<compress::BlockInfo> block_infos;
  double factor() const {
    return bytes_on_wire
               ? static_cast<double>(bytes_decoded) / bytes_on_wire
               : 1.0;
  }
};

/// Fetch `name` from a proxy at `port`: one GET attempt with no
/// deadline, i.e. download_resilient with max_retries = 0, timeout_ms =
/// 0, resume = false and `threads`. mode "selective" decodes each block
/// as it completes; "full"/"raw" buffer, CRC-check, then decode.
/// `threads` >= 2 inflates the compressed selective blocks that have
/// arrived on a pool while later ones arrive — the reconstructed bytes
/// are identical either way.
Bytes download(std::uint16_t port, const std::string& name,
               const std::string& mode, DownloadStats* stats = nullptr,
               unsigned threads = 1);

/// Upload `data` as `name`: the client compresses block by block with
/// `policy` while sending (the paper's upload direction, its stated
/// future work); the server decodes and stores the original bytes.
/// Returns the wire bytes sent. One attempt with no deadline:
/// upload_resilient with max_retries = 0 and timeout_ms = 0.
std::size_t upload(std::uint16_t port, const std::string& name,
                   ByteSpan data, const compress::SelectivePolicy& policy);

/// Client-side resilience knobs for download_resilient/upload_resilient.
struct TransferPolicy {
  int max_retries = 4;  ///< reconnect attempts after the first failure
  std::uint32_t timeout_ms = 2000;  ///< per-socket recv/send deadline; 0 = none
  std::uint32_t backoff_base_ms = 10;
  std::uint32_t backoff_max_ms = 250;
  std::uint64_t jitter_seed = 0x5EEDull;  ///< deterministic backoff jitter
  /// GET-RANGE from the bytes already received (never degraded); false
  /// restarts every attempt with GET, which the ladder may degrade.
  bool resume = true;
  /// Selective mode only: when retries run out mid-container, salvage
  /// whatever blocks arrived intact instead of throwing.
  bool salvage = false;
  /// Selective mode only: >= 2 inflates the compressed blocks that
  /// have arrived on a pool of that many workers while the socket keeps
  /// receiving (§4.1); the receive stays on the calling thread.
  unsigned threads = 1;
};

struct DownloadOutcome {
  Bytes data;
  DownloadStats stats;
  int attempts = 0;               ///< connections opened (>= 1)
  int busy = 0;                   ///< attempts refused with BUSY
  std::size_t resumed_bytes = 0;  ///< bytes carried across reconnects
  /// False only when retries were exhausted and the partial container
  /// was salvaged (recovery then says what was lost).
  bool complete = true;
  compress::RecoveryReport recovery;
};

/// The one download routine: deadlines, bounded retries (exponential
/// backoff with deterministic jitter; a BUSY reply's retry-after raises
/// the floor of the next wait), and resume-from-offset over GET-RANGE.
/// Selective mode decodes while it receives, and a resume continues the
/// same decoder, so each block is decoded once however often the link
/// breaks. Every completed download is CRC-verified — raw mode
/// included. Every transfer carries one trace id (the thread's current
/// trace, else a fresh one) and runs under one net.download span.
/// Throws the last failure once retries are exhausted, unless
/// policy.salvage turns a partial selective container into a salvaged
/// DownloadOutcome.
DownloadOutcome download_resilient(std::uint16_t port,
                                   const std::string& name,
                                   const std::string& mode,
                                   const TransferPolicy& policy = {});

/// upload() with deadlines and bounded retries (PUT is idempotent, so a
/// failed attempt is simply replayed; BUSY retry-after is honored like
/// the download side). Returns the wire bytes of the successful
/// attempt; `attempts` (optional) receives the count.
std::size_t upload_resilient(std::uint16_t port, const std::string& name,
                             ByteSpan data,
                             const compress::SelectivePolicy& policy,
                             const TransferPolicy& tp = {},
                             int* attempts = nullptr);

/// Fetch a live telemetry snapshot over the STATS verb. `format` is
/// "text", "json", or "prom"; returns the rendered payload verbatim.
std::string fetch_stats(std::uint16_t port,
                        const std::string& format = "json");

}  // namespace ecomp::net
