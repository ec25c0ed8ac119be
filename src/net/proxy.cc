#include "net/proxy.h"

#include <sys/socket.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "compress/deflate.h"
#include "core/interleave.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "sim/transfer.h"
#include "util/crc32.h"
#include "util/rng.h"

#if defined(ECOMP_OBS_ENABLED)
#include "core/energy_model.h"
#include "obs/monitor.h"
#include "prof/flight.h"
#include "prof/profiler.h"
#endif

namespace ecomp::net {
namespace {

/// Split a request line into its whitespace-separated tokens and peel
/// a trailing "trace=" token off into `ctx`. Returns no tokens when that
/// trace token is not a valid trace id.
std::vector<std::string> split_request(const std::string& line,
                                       obs::TraceContext* ctx) {
  std::istringstream iss(line);
  std::vector<std::string> tokens;
  for (std::string token; iss >> token;) tokens.push_back(std::move(token));
  static constexpr std::string_view kTrace = "trace=";
  if (tokens.size() > 1 && tokens.back().rfind(kTrace, 0) == 0) {
    *ctx = obs::TraceContext::from_hex(
        std::string_view(tokens.back()).substr(kTrace.size()));
    if (!ctx->valid()) return {};
    tokens.pop_back();
  }
  return tokens;
}

/// A GET-RANGE offset: decimal digits only, within 64 bits.
bool parse_offset(const std::string& token, std::uint64_t* offset) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *offset);
  return ec == std::errc() && ptr == end;
}

/// Append the reply-side trace echo when the request carried one.
std::string with_trace(std::string status, const obs::TraceContext& ctx) {
  if (ctx.valid()) status += " trace=" + ctx.hex();
  return status;
}

/// Parse the echoed trace id out of a reply status (0 when absent).
std::uint64_t echoed_trace(const std::string& status) {
  static const std::string kKey = " trace=";
  const auto pos = status.rfind(kKey);
  if (pos == std::string::npos) return 0;
  return obs::TraceContext::from_hex(
             std::string_view(status).substr(pos + kKey.size()))
      .trace_id;
}

/// Parse a "BUSY <retry-after-ms>" status (anywhere in `s`, so client
/// retry loops can also fish it out of a wrapped error message).
/// Returns -1 when absent.
std::int64_t parse_busy_retry_ms(const std::string& s) {
  const auto pos = s.find("BUSY ");
  if (pos == std::string::npos) return -1;
  std::istringstream iss(s.substr(pos + 5));
  std::uint64_t ms = 0;
  if (!(iss >> ms)) return -1;
  return static_cast<std::int64_t>(ms);
}

/// Test hook: when ECOMP_PROF_TEST_CRASH is set, fault mid-download
/// (after the first payload bytes arrive) so the crash-dump pipeline can
/// be exercised end-to-end from a child process.
void maybe_test_crash() {
#if defined(ECOMP_OBS_ENABLED)
  static const bool want = std::getenv("ECOMP_PROF_TEST_CRASH") != nullptr;
  if (want) ::raise(SIGSEGV);
#endif
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return static_cast<std::uint64_t>(us < 0 ? 0 : us);
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The request modes ProxyServer::latency_us_ slots 1.. time, and the
/// name STATS reports each slot under; slot 0 times every request.
constexpr const char* kLatencyModes[] = {"", "raw", "full", "selective",
                                         "put"};
constexpr const char* kLatencyNames[] = {
    "net.proxy.request_us", "net.proxy.raw_us", "net.proxy.full_us",
    "net.proxy.selective_us", "net.proxy.put_us"};

/// The trace a client transfer runs under: the thread's current trace,
/// else a fresh id.
obs::TraceContext client_trace() {
  const obs::TraceContext ctx = obs::current_trace();
  return ctx.valid() ? ctx : obs::TraceContext::mint();
}

/// Client-side lifecycle events of one transfer: stamps the side and
/// trace id, and the transfer's name and mode unless the event carries
/// its own.
struct ClientEvents {
  std::uint64_t trace_id;
  std::string_view name;
  std::string_view mode;
  void operator()(obs::Event e) const {
    e.side = "client";
    e.trace_id = trace_id;
    if (e.name.empty()) e.name = name;
    if (e.mode.empty()) e.mode = mode;
    obs::EventLog::global().emit(e);
  }
};

/// Sleep before retry `attempt` (1-based): exponential backoff with
/// ±50% deterministic jitter, but never shorter than a BUSY reply's
/// retry-after, which `busy_floor_ms` carries in and is cleared.
void backoff(const TransferPolicy& p, int attempt, Rng& rng,
             std::uint32_t* busy_floor_ms) {
  double ms = p.backoff_base_ms;
  for (int i = 1; i < attempt && ms < p.backoff_max_ms; ++i) ms *= 2.0;
  ms = std::min(ms, static_cast<double>(p.backoff_max_ms));
  const std::uint32_t wait = std::max(
      static_cast<std::uint32_t>(ms * (0.5 + rng.uniform())), *busy_floor_ms);
  *busy_floor_ms = 0;
  std::this_thread::sleep_for(std::chrono::milliseconds(wait));
}

}  // namespace

void FileStore::put(std::string name, Bytes data) {
  auto shared = std::make_shared<const Bytes>(std::move(data));
  std::lock_guard<std::mutex> lock(mu_);
  files_[std::move(name)] = std::move(shared);
}

std::shared_ptr<const Bytes> FileStore::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(name);
  if (it == files_.end()) throw Error("FileStore: no file named " + name);
  return it->second;
}

bool FileStore::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(name) != 0;
}

std::map<std::string, std::shared_ptr<const Bytes>> FileStore::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_;
}

ProxyServer::ProxyServer(FileStore store, compress::SelectivePolicy policy,
                         std::size_t block_size, bool precompress,
                         unsigned threads, MonitorConfig monitor)
    : ProxyServer(std::move(store), std::move(policy), [&] {
        ProxyOptions o;
        o.block_size = block_size;
        o.precompress = precompress;
        o.threads = threads;
        o.monitor = monitor;
        return o;
      }()) {}

ProxyServer::ProxyServer(FileStore store, compress::SelectivePolicy policy,
                         ProxyOptions options)
    : store_(std::move(store)),
      policy_(std::move(policy)),
      options_(options),
      cache_(options.cache_capacity_bytes),
      listener_(options.port) {
  if (options_.threads == 0) options_.threads = 1;
  if (options_.workers == 0) options_.workers = 1;
#if defined(ECOMP_OBS_ENABLED)
  // Every event emitted anywhere in the process also lands in the
  // flight recorder, so a crash dump always has recent history.
  prof::attach_flight_mirror();
#endif
  if (options_.precompress) {
    for (const auto& [name, data] : store_.snapshot()) {
      cache_.put(cache_key(name, "full9"),
                 compress::DeflateCodec().compress(*data));
      cache_.put(cache_key(name, "sel9"),
                 compress::selective_compress(*data, policy_,
                                              options_.block_size, 9,
                                              options_.threads)
                     .container);
    }
  }
  // The pool's bounded queue is the admission queue: with max_conns=K
  // at most K connections are queued or in service, and try_submit
  // never refuses an admitted connection (queued <= admitted <= K).
  // Unbounded admission (K=0, the legacy mode) gets an effectively
  // infinite queue so connections wait instead of being refused.
  const std::size_t queue_cap =
      options_.max_conns ? options_.max_conns : (std::size_t{1} << 20);
  pool_ = std::make_unique<par::ThreadPool>(options_.workers, queue_cap);
  start_monitor(options_.monitor);
  thread_ = std::thread([this] { serve(); });
}

std::string ProxyServer::cache_key(const std::string& name,
                                   const char* variant) const {
  return name + '\x1f' + variant;
}

void ProxyServer::start_monitor(const MonitorConfig& cfg) {
#if defined(ECOMP_OBS_ENABLED)
  // The SLO line: 1.15 x Eq. 1 raw-download energy per MB on the
  // paper's iPAQ/11 Mb/s device, loss-free. A healthy proxy serves at
  // or below Eq. 1; faults push measured J/MB-served above the line.
  const double slo_line =
      1.15 * core::EnergyModel::from_device(sim::DeviceModel::ipaq_11mbps())
                 .raw_j_per_mb(1.0);
  // Price wasted wire bytes at the clean raw line: energy the device
  // spent receiving data that an error then threw away.
  const double waste_line = sim::TransferSimulator().raw_j_per_mb();

  obs::MonitorOptions mopt;
  mopt.cadence_ms = cfg.cadence_ms;
  monitor_ = std::make_shared<obs::Monitor>(mopt);

  monitor_->add_source([this, waste_line](double t, obs::SeriesStore& st) {
    const double ok_mb =
        static_cast<double>(bytes_ok_raw_.load(std::memory_order_relaxed)) /
        1e6;
    const double waste_mb =
        static_cast<double>(
            bytes_waste_wire_.load(std::memory_order_relaxed)) /
        1e6;
    const double e_down_j =
        static_cast<double>(energy_down_uj_.load(std::memory_order_relaxed)) *
        1e-6;
    if (ok_mb > 0.0)
      st.series("net.proxy.j_per_mb_served")
          .append(t, (e_down_j + waste_mb * waste_line) / ok_mb);
    st.series("net.proxy.wire_waste_mb").append(t, waste_mb);
    st.series("net.proxy.conns_active")
        .append(t, static_cast<double>(
                       conns_active_.load(std::memory_order_relaxed)));
    st.series("net.proxy.admission_depth")
        .append(t, static_cast<double>(
                       admitted_.load(std::memory_order_relaxed)));
    st.series("net.proxy.conns_busy")
        .append(t, static_cast<double>(
                       conns_busy_.load(std::memory_order_relaxed)));
    st.series("net.proxy.degraded")
        .append(
            t,
            static_cast<double>(
                degraded_level_total_.load(std::memory_order_relaxed) +
                degraded_raw_total_.load(std::memory_order_relaxed)));
    // Seconds the most-stalled active connection has gone without
    // moving a byte (0 when idle). Delay faults sleep inside send/recv,
    // so progress goes stale while the connection stays active. Every
    // live connection is inspected — one stuck transfer among many
    // healthy ones still trips the watchdog.
    double stall_s = 0.0;
    const std::uint64_t now = steady_now_ns();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [id, state] : conns_) {
        const std::uint64_t since =
            state->active_since_ns.load(std::memory_order_relaxed);
        if (since == 0) continue;
        const std::uint64_t ref = std::max(
            since, state->progress_ns.load(std::memory_order_relaxed));
        if (now > ref)
          stall_s = std::max(stall_s,
                             static_cast<double>(now - ref) / 1e9);
      }
    }
    st.series("net.proxy.conn_stall_s").append(t, stall_s);
    // This proxy's own request latency, under the names the registry
    // sampler would give it.
    const obs::SlidingHistogram::Snapshot req = latency_us_[0].snapshot();
    st.series("net.proxy.request_us.p50").append(t, req.p50);
    st.series("net.proxy.request_us.p99").append(t, req.p99);
    st.series("net.proxy.request_us.rate").append(t, req.rate_per_s);
  });

  {
    obs::Rule r;
    r.name = "energy-slo";
    r.kind = obs::RuleKind::Slo;
    r.series = "net.proxy.j_per_mb_served";
    r.threshold = slo_line;
    r.above = true;
    r.for_n = 2;
    monitor_->add_rule(std::move(r));
  }
  {
    obs::Rule r;
    r.name = "conn-stall";
    r.kind = obs::RuleKind::Stall;
    r.series = "net.proxy.conn_stall_s";
    r.threshold = cfg.stall_timeout_s;
    r.for_n = 1;
    monitor_->add_rule(std::move(r));
  }
  if (options_.max_conns > 0) {
    // Admission depth pinned near capacity means the pool is at the
    // shedding edge: clients are about to see BUSY.
    obs::Rule r;
    r.name = "admission-saturated";
    r.kind = obs::RuleKind::Slo;
    r.series = "net.proxy.admission_depth";
    r.threshold = 0.95 * static_cast<double>(options_.max_conns);
    r.above = true;
    r.for_n = 2;
    monitor_->add_rule(std::move(r));
  }
  if (options_.threads > 1) {
    // The pool queue holds 4x threads tasks; a p99 depth pinned near
    // capacity means compression cannot keep up with the wire.
    obs::Rule r;
    r.name = "par-queue-saturated";
    r.kind = obs::RuleKind::Slo;
    r.series = "par.queue_depth.p99";
    r.threshold = 0.95 * 4.0 * static_cast<double>(options_.threads);
    r.above = true;
    r.for_n = 2;
    monitor_->add_rule(std::move(r));
  }

  monitor_->set_alert_sink([this](const obs::Alert& a) {
    obs::Event e;
    e.stage = "alert";
    e.side = "proxy";
    e.name = a.rule;
    e.mode = a.series;
    e.err = a.detail;
    e.value = a.value;
    e.threshold = a.threshold;
    emit(e);
  });
  monitor_->start();
#else
  (void)cfg;
#endif
}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::stop() {
  if (stopping_.exchange(true)) return;
#if defined(ECOMP_OBS_ENABLED)
  if (monitor_) monitor_->stop();
#endif
  // Poke the accept loop awake with a throwaway connection, then join
  // it — no new connection is admitted past this point.
  try {
    Socket s = connect_local(listener_.port());
  } catch (const Error&) {
  }
  if (thread_.joinable()) thread_.join();
  // Graceful drain: in-flight (and already-queued) connections finish
  // under the deadline...
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drained_.wait_for(
        lock, std::chrono::milliseconds(options_.drain_deadline_ms),
        [this] { return admitted_.load(std::memory_order_acquire) == 0; });
  }
  // ...after which still-queued connections are refused (workers check
  // drain_expired_ before reading the request) and in-service sockets
  // are broken so no transfer can wedge shutdown. ::shutdown (not
  // close) is safe against fd reuse: the registry entry is erased —
  // under conns_mu_ — strictly before the worker closes the fd.
  if (admitted_.load(std::memory_order_acquire) != 0) {
    drain_expired_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, state] : conns_) {
      const int fd = state->fd.load(std::memory_order_relaxed);
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  pool_.reset();  // runs every remaining queued task, then joins
}

void ProxyServer::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_injector_ = std::move(injector);
}

void ProxyServer::set_event_log(obs::EventLog* log) {
  events_.store(log, std::memory_order_release);
}

void ProxyServer::emit(const obs::Event& e) const {
  if (obs::EventLog* log = events_.load(std::memory_order_acquire))
    log->emit(e);
}

double ProxyServer::estimate_request_j(const std::string& mode,
                                       std::size_t raw_bytes,
                                       std::size_t wire_bytes) const {
  const double raw_mb = static_cast<double>(raw_bytes) / 1e6;
  const double wire_mb = static_cast<double>(wire_bytes) / 1e6;
  if (raw_mb <= 0.0 || wire_mb <= 0.0) return 0.0;
  try {
    const sim::TransferSimulator sim;
    if (mode == "raw") return sim.download_uncompressed(raw_mb).energy_j;
    sim::TransferOptions opt;
    opt.interleave = mode == "selective";
    if (mode == "put")
      return sim.upload_compressed(raw_mb, wire_mb, "zlib", opt).energy_j;
    return sim.download_compressed(raw_mb, wire_mb, "zlib", opt).energy_j;
  } catch (const std::exception&) {
    return 0.0;  // a ledger estimate must never fail a request
  }
}

obs::StatsSnapshot ProxyServer::stats() const {
  obs::StatsSnapshot s;
  s.provenance = obs::collect_provenance();
  s.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_)
                   .count();
  s.connections_active = conns_active_.load(std::memory_order_relaxed);
  s.connections_total = conns_total_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.errors_total = errors_total_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_recv = bytes_recv_.load(std::memory_order_relaxed);
  s.energy_served_j =
      static_cast<double>(energy_served_uj_.load(std::memory_order_relaxed)) *
      1e-6;
  s.admission.present = true;
  s.admission.workers = options_.workers;
  s.admission.capacity = options_.max_conns;
  s.admission.depth = admitted_.load(std::memory_order_relaxed);
  s.admission.busy_total = conns_busy_.load(std::memory_order_relaxed);
  s.admission.degraded_level_total =
      degraded_level_total_.load(std::memory_order_relaxed);
  s.admission.degraded_raw_total =
      degraded_raw_total_.load(std::memory_order_relaxed);
  {
    const ContainerCache::Stats cs = cache_.stats();
    s.cache.present = true;
    s.cache.hits = cs.hits;
    s.cache.misses = cs.misses;
    s.cache.waits = cs.waits;
    s.cache.builds = cs.builds;
    s.cache.evictions = cs.evictions;
    s.cache.bytes = cs.bytes;
    s.cache.entries = cs.entries;
  }
  for (const auto& [name, v] : obs::Registry::global().counter_values())
    s.counters.emplace_back(name, v);
  // Instance histograms first, then the process-wide sliding set; one
  // final sort keeps the rendering byte-stable.
  for (std::size_t i = 0; i < latency_us_.size(); ++i)
    s.histograms.push_back({kLatencyNames[i], latency_us_[i].snapshot()});
  for (auto& [name, snap] : obs::Registry::global().sliding_snapshots())
    s.histograms.push_back({name, snap});
  std::sort(s.histograms.begin(), s.histograms.end(),
            [](const obs::HistStat& a, const obs::HistStat& b) {
              return a.name < b.name;
            });
#if defined(ECOMP_OBS_ENABLED)
  s.prof.present = true;
  s.prof.rss_peak_kb = prof::rss_peak_kb();
  s.prof.samples_lifetime = prof::Profiler::lifetime_samples();
  s.prof.sampler_active = prof::Profiler::sampler_active();
  s.prof.flight_recorded = prof::FlightRecorder::global().recorded();
  if (monitor_) {
    s.monitor.present = true;
    s.monitor.ticks = monitor_->ticks();
    s.monitor.alerts_total = monitor_->alerts_total();
    s.monitor.gauges = monitor_->latest();
    for (const auto& a : monitor_->recent_alerts())
      s.monitor.alerts.push_back(
          {a.rule, a.series, a.detail, a.t_s, a.value, a.threshold});
  }
#endif
  return s;
}

void ProxyServer::shed(Socket client, std::uint64_t conn) {
  conns_busy_.fetch_add(1, std::memory_order_relaxed);
  try {
    // Consume the request frame before refusing: closing with unread
    // data pending would RST the connection and the RST can destroy
    // the BUSY reply in flight (the client would see a broken pipe
    // instead of the retry-after hint). The deadline keeps a silent
    // peer from stalling the accept thread.
    client.set_recv_timeout_ms(50);
    (void)recv_frame(client);
  } catch (const Error&) {
    // Slow or gone peer — refuse anyway; the close may be unclean.
  }
  try {
    send_frame(client,
               as_bytes("BUSY " + std::to_string(options_.busy_retry_ms)));
  } catch (const Error&) {
    // The peer may already be gone; the shed still counts.
  }
  obs::Event e;
  e.stage = "busy";
  e.side = "proxy";
  e.conn = static_cast<std::int64_t>(conn);
  e.value = options_.busy_retry_ms;
  emit(e);
}

void ProxyServer::serve() {
  while (!stopping_.load()) {
    Socket client;
    try {
      client = listener_.accept();
    } catch (const std::exception&) {
      if (stopping_.load()) break;
      continue;  // a failed accept must not kill the server
    }
    if (stopping_.load()) break;
    const std::uint64_t conn =
        conns_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      std::lock_guard<std::mutex> lock(fault_mu_);
      if (fault_injector_)
        if (auto ch = fault_injector_->channel_for(conn)) {
          faults_injected_.fetch_add(1, std::memory_order_relaxed);
          client.inject(std::move(ch));
        }
    }
    {
      obs::Event e;
      e.stage = "accept";
      e.side = "proxy";
      e.conn = static_cast<std::int64_t>(conn);
      emit(e);
    }
    // Admission: K in flight max; above the watermarks new work is
    // served degraded before being shed outright. Only this thread
    // increments admitted_, so check-then-admit cannot overshoot.
    Degrade degrade = Degrade::None;
    if (options_.max_conns > 0) {
      const std::uint64_t inflight =
          admitted_.load(std::memory_order_relaxed);
      if (inflight >= options_.max_conns) {
        shed(std::move(client), conn);
        continue;
      }
      const double load = static_cast<double>(inflight + 1) /
                          static_cast<double>(options_.max_conns);
      if (load >= options_.degrade_raw_watermark) degrade = Degrade::Raw;
      else if (load >= options_.degrade_level_watermark)
        degrade = Degrade::Level;
    }
    admitted_.fetch_add(1, std::memory_order_acq_rel);
    // std::function needs a copyable callable; the socket rides a
    // shared_ptr. The local copy of `shared` keeps the socket
    // reachable if try_submit refuses (shed below).
    auto shared = std::make_shared<Socket>(std::move(client));
    const bool queued = pool_->try_submit([this, shared, conn, degrade] {
      try {
        handle(std::move(*shared), conn, degrade);
      } catch (const std::exception&) {
        // Per-connection failures — injected or real — never take the
        // server down; the next task proceeds.
      }
      if (admitted_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(drain_mu_);
        drained_.notify_all();
      }
    });
    if (!queued) {
      // Shutdown raced the admit (the pool refuses after stop).
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
      shed(std::move(*shared), conn);
    }
  }
}

void ProxyServer::handle(Socket client, std::uint64_t conn,
                         Degrade degrade) {
  if (drain_expired_.load(std::memory_order_acquire)) {
    // stop() gave up waiting while this connection sat in the queue:
    // refuse it instead of starting a transfer nobody will wait for.
    shed(std::move(client), conn);
    return;
  }
  if (options_.io_timeout_ms) {
    try {
      client.set_recv_timeout_ms(options_.io_timeout_ms);
      client.set_send_timeout_ms(options_.io_timeout_ms);
    } catch (const Error&) {
    }
  }
  conns_active_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<ConnState>();
  const std::uint64_t now_ns = steady_now_ns();
  state->active_since_ns.store(now_ns, std::memory_order_relaxed);
  state->progress_ns.store(now_ns, std::memory_order_relaxed);
  state->fd.store(client.fd(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_[conn] = state;
  }
  // Unregister strictly before the socket closes (locals die before
  // parameters), so stop()'s ::shutdown can never hit a reused fd.
  struct Unregister {
    ProxyServer* self;
    std::uint64_t conn;
    ~Unregister() {
      std::lock_guard<std::mutex> lock(self->conns_mu_);
      self->conns_.erase(conn);
    }
  } unregister{this, conn};

  const auto t0 = std::chrono::steady_clock::now();
  ReqInfo info;
  obs::TraceContext ctx;

  Bytes req;
  bool have_req = false;
  try {
    req = recv_frame(client);
    have_req = true;
  } catch (const Error&) {
    // A corrupted length prefix (recv_frame caps control frames) or a
    // broken read. Answer if the peer can still hear us, then give up
    // on this connection only.
    info.error = true;
    try {
      send_frame(client, as_bytes(std::string("ERR bad frame")));
    } catch (const Error&) {
    }
  }
  if (have_req) {
    const std::vector<std::string> tokens =
        split_request(ecomp::to_string(req), &ctx);
    obs::TraceScope scope(ctx);
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    try {
      handle_request(client, tokens, &info, conn, degrade, *state);
    } catch (const std::exception& e) {
      // Anything a request trips over (missing file, bad upload, codec
      // error, an injected kill) is that request's problem: reply ERR
      // unless the status frame already went out and the peer now
      // expects stream bytes, or a fault killed the connection by design.
      info.error = true;
      obs::Event ev;
      ev.stage = "error";
      ev.side = "proxy";
      ev.trace_id = ctx.trace_id;
      ev.conn = static_cast<std::int64_t>(conn);
      ev.name = info.name;
      ev.mode = info.mode;
      ev.err = e.what();
      emit(ev);
      if (!info.streaming && !dynamic_cast<const FaultError*>(&e)) {
        try {
          send_frame(client,
                     as_bytes(with_trace(std::string("ERR ") + e.what(), ctx)));
        } catch (const Error&) {
        }
      }
    }
  }

  const std::uint64_t us = elapsed_us(t0);
  for (std::size_t i = 0; i < latency_us_.size(); ++i)
    if (i == 0 || info.mode == kLatencyModes[i]) latency_us_[i].record(us);
  if (info.error) {
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    // Wire bytes this connection burned before failing: paid for but
    // useless, so they count against the J/MB-served gauge.
    bytes_waste_wire_.fetch_add(client.bytes_sent(),
                                std::memory_order_relaxed);
  } else if (info.mode == "raw" || info.mode == "full" ||
             info.mode == "selective") {
    bytes_ok_raw_.fetch_add(info.raw_bytes, std::memory_order_relaxed);
  }
  bytes_sent_.fetch_add(client.bytes_sent(), std::memory_order_relaxed);
  bytes_recv_.fetch_add(client.bytes_recv(), std::memory_order_relaxed);
  state->active_since_ns.store(0, std::memory_order_relaxed);
  conns_active_.fetch_sub(1, std::memory_order_relaxed);
  {
    obs::Event e;
    e.stage = "close";
    e.side = "proxy";
    e.trace_id = ctx.trace_id;
    e.conn = static_cast<std::int64_t>(conn);
    e.name = info.name;
    e.mode = info.mode;
    e.bytes_wire = static_cast<std::int64_t>(client.bytes_sent());
    emit(e);
  }
}

void ProxyServer::handle_request(Socket& client,
                                 const std::vector<std::string>& req,
                                 ReqInfo* info, std::uint64_t conn,
                                 Degrade degrade, ConnState& state) {
  const std::string verb = req.empty() ? "" : req[0];
  const obs::TraceContext ctx = obs::current_trace();
  const auto reply = [&](std::string status) {
    send_frame(client, as_bytes(with_trace(std::move(status), ctx)));
  };
  const auto fail = [&](std::string status) {
    info->error = true;
    reply(std::move(status));
  };
  const auto event = [&](obs::Event e) {
    e.side = "proxy";
    e.trace_id = ctx.trace_id;
    e.conn = static_cast<std::int64_t>(conn);
    if (e.name.empty()) e.name = info->name;
    if (e.mode.empty()) e.mode = info->mode;
    emit(e);
  };
  // Ledger the device-side energy a served transfer represents and
  // stamp it into the stream event.
  const auto ledger = [&](obs::Event e) {
    const double j = estimate_request_j(info->mode, info->raw_bytes,
                                        info->wire_bytes);
    energy_served_uj_.fetch_add(static_cast<std::uint64_t>(j * 1e6),
                                std::memory_order_relaxed);
    if (info->mode != "put")
      energy_down_uj_.fetch_add(static_cast<std::uint64_t>(j * 1e6),
                                std::memory_order_relaxed);
    e.j_est = j;
    event(std::move(e));
  };
  // Stamp "this connection just moved bytes" for the stall watchdog.
  const auto touch = [&state] {
    state.progress_ns.store(steady_now_ns(), std::memory_order_relaxed);
  };

  if (verb == "STATS" && req.size() <= 2) {
    info->mode = "stats";
    const std::string format = req.size() == 2 ? req[1] : "";
    std::string payload;
    if (format == "series") {
      // Raw time-series dump for `ecomp top` sparklines; an empty store
      // shape when no monitor is attached keeps clients branch-free.
#if defined(ECOMP_OBS_ENABLED)
      if (monitor_) payload = monitor_->series_json();
#endif
      if (payload.empty()) payload = "{\"schema\":1,\"series\":{}}";
    } else {
      payload = obs::render_stats(stats(), obs::parse_stats_format(format));
    }
    reply("OK " + std::to_string(payload.size()));
    info->streaming = true;
    send_frame(client, as_bytes(payload));  // may exceed the control cap
    return;
  }

  if (verb == "PUT" && req.size() == 2) {
    const std::string& name = req[1];
    info->mode = "put";
    info->name = name;
    event({.stage = "parse"});
    // Receive a streamed selective container, decoding block by block.
    core::SelectiveStreamDecoder dec;
    Bytes data;
    core::InterleavedDownloader().feed(
        dec,
        [&](std::uint8_t* dst, std::size_t max) {
          const std::size_t n = client.recv_some(dst, max);
          touch();
          return n;
        },
        data);
    if (!dec.finished()) {
      fail("ERR truncated upload");
      return;
    }
    dec.verify();
    info->raw_bytes = data.size();
    info->wire_bytes = dec.bytes_fed();
    const std::string status = "OK stored " + std::to_string(data.size());
    const std::int64_t blocks =
        static_cast<std::int64_t>(dec.block_infos().size());
    store_.put(name, std::move(data));
    // New content invalidates every cached variant of the name.
    cache_.invalidate_prefix(name + '\x1f');
    reply(status);
    ledger({.stage = "stream",
            .bytes_wire = static_cast<std::int64_t>(info->wire_bytes),
            .bytes_raw = static_cast<std::int64_t>(info->raw_bytes),
            .blocks = blocks});
    return;
  }

  const bool ranged = verb == "GET-RANGE";
  std::uint64_t offset = 0;
  if ((verb != "GET" && !ranged) || req.size() != (ranged ? 4u : 3u) ||
      (req[1] != "raw" && req[1] != "full" && req[1] != "selective") ||
      (ranged && !parse_offset(req[3], &offset))) {
    fail("ERR bad request");
    return;
  }
  const std::string& mode = req[1];
  const std::string& name = req[2];
  const bool selective = mode == "selective";
  info->mode = mode;
  info->name = name;
  event({.stage = "parse"});
  if (!store_.contains(name)) {
    fail("ERR no such file: " + name);
    return;
  }
  std::shared_ptr<const Bytes> original = store_.get(name);
  info->raw_bytes = original->size();
  const auto blocks = [&]() -> std::int64_t {
    if (!selective || !options_.block_size) return selective ? 0 : -1;
    return static_cast<std::int64_t>(
        (original->size() + options_.block_size - 1) / options_.block_size);
  };

  // The degradation ladder (chosen at admission time): under load a
  // compressed GET is served at deflate level 1, then — one rung lower
  // — with compression skipped entirely (stored container blocks; full
  // mode bottoms out at level 1, the cheapest valid member). The
  // response stays protocol- and decoder-compatible; only the wire
  // size changes, and the ledger prices the extra bytes so the energy
  // cost of shedding is visible. raw GETs have nothing to degrade, and
  // GET-RANGE is NEVER degraded, not even at offset 0: a resumable
  // transfer's bytes must be identical across attempts, and the server
  // is stateless across connections — it cannot know which variant an
  // earlier attempt streamed, so every ranged request is served from
  // the canonical level-9 containers. (Degrading the first attempt and
  // resuming canonical would splice two different containers into one
  // stream; under fault churn that can poison the client's partial for
  // the whole retry budget.)
  int level = 9;
  const char* sel_variant = "sel9";
  const char* full_variant = "full9";
  compress::SelectivePolicy sel_policy = policy_;
  if (degrade != Degrade::None && !ranged && mode != "raw") {
    level = 1;
    if (degrade == Degrade::Raw && selective) {
      sel_variant = "selraw";
      sel_policy = compress::SelectivePolicy::never();
      degraded_raw_total_.fetch_add(1, std::memory_order_relaxed);
    } else {
      sel_variant = "sel1";
      degraded_level_total_.fetch_add(1, std::memory_order_relaxed);
    }
    full_variant = "full1";
    event({.stage = "degrade",
           .err = degrade == Degrade::Raw ? "raw" : "level"});
  }

  // Resolve the one payload this request ships: the stored bytes for
  // raw, else the variant from the single-flight cache (precompressed a
  // priori, §3, or built on demand, §5). Deflate is deterministic, so a
  // rebuilt variant matches any earlier stream of it byte for byte.
  std::shared_ptr<const Bytes> payload;
  if (mode == "raw") payload = original;
  while (!payload) {
    auto lk = cache_.acquire(
        cache_key(name, selective ? sel_variant : full_variant));
    payload = std::move(lk.data);
    if (payload || !lk.builder) continue;  // a hit, or an abandoned flight
    // Build from the file as it is now that this request owns the
    // flight: a PUT after this read orphans the flight, so a stale
    // build never reaches the cache.
    original = store_.get(name);
    info->raw_bytes = original->size();
    event({.stage = "compress"});
    if (selective && offset == 0) {
      // This request owns the flight: overlap each block's encode with
      // its send (§5's zlib arrangement), then publish the container
      // for the requests waiting on it.
      info->streaming = true;
      reply("OK stream");
      Bytes container;
      compress::SelectiveStreamEncoder enc(*original, sel_policy,
                                           options_.block_size, level,
                                           options_.threads);
      while (!enc.done()) {
        const Bytes chunk = enc.next_chunk();
        if (chunk.empty()) continue;
        container.insert(container.end(), chunk.begin(), chunk.end());
        client.send_all(chunk);
        touch();
      }
      info->wire_bytes = container.size();
      lk.builder->publish(std::move(container));
      ledger({.stage = "stream",
              .bytes_wire = static_cast<std::int64_t>(info->wire_bytes),
              .bytes_raw = static_cast<std::int64_t>(info->raw_bytes),
              .blocks = blocks()});
      return;
    }
    payload = lk.builder->publish(
        selective ? compress::selective_compress(*original, sel_policy,
                                                 options_.block_size, level,
                                                 options_.threads)
                        .container
                  : compress::DeflateCodec(level).compress(*original));
  }

  if (offset > payload->size()) {
    fail("ERR bad offset");
    return;
  }
  const std::uint64_t remaining = payload->size() - offset;
  std::string status = "OK stream";
  if (!selective) {
    // raw/full ship one length-framed payload under the whole payload's
    // size and CRC, so the client can verify (and resume) any of them.
    if (remaining > kMaxFramedPayload) {
      fail("ERR payload too large");
      return;
    }
    status = "OK " + std::to_string(remaining) + " " +
             std::to_string(payload->size()) + " " +
             std::to_string(crc32(*payload));
  }
  info->streaming = true;
  reply(std::move(status));
  if (!selective) send_frame_header(client, remaining);
  constexpr std::size_t kChunk = 32 * 1024;
  for (std::size_t off = offset; off < payload->size(); off += kChunk) {
    client.send_all(ByteSpan(*payload).subspan(
        off, std::min(kChunk, payload->size() - off)));
    touch();
  }
  info->wire_bytes = remaining;
  ledger({.stage = "stream",
          .bytes_wire = static_cast<std::int64_t>(remaining),
          .bytes_raw = static_cast<std::int64_t>(info->raw_bytes),
          .blocks = blocks()});
}

Bytes download(std::uint16_t port, const std::string& name,
               const std::string& mode, DownloadStats* stats,
               unsigned threads) {
  TransferPolicy tp;
  tp.max_retries = 0;
  tp.timeout_ms = 0;
  tp.resume = false;
  tp.threads = threads;
  DownloadOutcome out = download_resilient(port, name, mode, tp);
  if (stats) *stats = std::move(out.stats);
  return std::move(out.data);
}

std::size_t upload(std::uint16_t port, const std::string& name,
                   ByteSpan data, const compress::SelectivePolicy& policy) {
  TransferPolicy tp;
  tp.max_retries = 0;
  tp.timeout_ms = 0;
  return upload_resilient(port, name, data, policy, tp);
}

DownloadOutcome download_resilient(std::uint16_t port,
                                   const std::string& name,
                                   const std::string& mode,
                                   const TransferPolicy& policy) {
  if (mode != "raw" && mode != "full" && mode != "selective")
    throw Error("download: bad mode " + mode);
  // One trace context for the whole transfer: every retry, resume, and
  // the eventual salvage all carry the id minted here.
  const obs::TraceContext ctx = client_trace();
  obs::TraceScope scope(ctx);
  ECOMP_TRACE_SPAN("net.download", "net");
  const auto t0 = std::chrono::steady_clock::now();
  const ClientEvents event{ctx.trace_id, name, mode};
  const bool selective = mode == "selective";

  DownloadOutcome out;
  out.stats.trace_id = ctx.trace_id;
  Rng rng(policy.jitter_seed);
  // What a resume continues: the framed payload received so far and
  // the total it belongs to (raw/full), or the decoder that has
  // consumed the container so far, its blocks already in out.data
  // (selective). Salvage closes that decoder out when retries run out.
  Bytes partial;
  std::uint64_t partial_total = 0;
  core::SelectiveStreamDecoder dec(policy.threads);
  std::string last_error = "no attempts made";
  // A BUSY reply's retry-after raises the floor of the next backoff
  // wait — the server said when it wants to hear from us again.
  std::uint32_t busy_floor_ms = 0;

  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    ++out.attempts;
    if (!policy.resume) {
      partial.clear();
      dec = core::SelectiveStreamDecoder(policy.threads);
      out.data.clear();
    }
    const std::size_t offset = selective ? dec.bytes_fed() : partial.size();
    if (attempt > 0) {
      backoff(policy, attempt, rng, &busy_floor_ms);
      out.resumed_bytes = std::max(out.resumed_bytes, offset);
      event({.stage = "retry",
             .bytes_wire = static_cast<std::int64_t>(offset),
             .attempt = attempt + 1});
    }

    const auto attempt_t0 = std::chrono::steady_clock::now();
    const auto record_attempt = [&] {
      ECOMP_SLIDING_OBSERVE("net.client.attempt_us",
                            elapsed_us(attempt_t0));
    };
    try {
      ECOMP_COUNT("net.round_trips");
      Socket s = connect_local(port);
      if (policy.timeout_ms) {
        s.set_recv_timeout_ms(policy.timeout_ms);
        s.set_send_timeout_ms(policy.timeout_ms);
      }
      // Lifecycle markers per attempt: if this attempt dies mid-stream
      // the flight recorder still knows a connection was up and what
      // was asked of it (the crash-dump tests pivot on these).
      event({.stage = "connect", .attempt = attempt + 1});
      // A resume asks for GET-RANGE from what has arrived, which is never
      // degraded, so it cannot splice two containers. Without resume
      // every attempt starts over with GET, which the ladder may serve
      // cheaper.
      std::string request = (policy.resume ? "GET-RANGE " : "GET ") + mode +
                            " " + name;
      if (policy.resume) request += " " + std::to_string(offset);
      send_frame(s, as_bytes(with_trace(std::move(request), ctx)));
      event({.stage = "request",
             .bytes_wire = static_cast<std::int64_t>(offset),
             .attempt = attempt + 1});
      const std::string status = ecomp::to_string(recv_frame(s));
      if (echoed_trace(status) == ctx.trace_id) out.stats.trace_echoed = true;
      if (const std::int64_t retry_after = parse_busy_retry_ms(status);
          retry_after >= 0 && status.rfind("BUSY", 0) == 0) {
        // Admission control shed us before reading the request; back
        // off at least as long as the server asked and try again.
        ++out.busy;
        busy_floor_ms = static_cast<std::uint32_t>(retry_after);
        last_error = "download: " + status;
        record_attempt();
        event({.stage = "busy", .attempt = out.attempts,
               .value = static_cast<double>(retry_after)});
        continue;
      }

      if (selective) {
        if (status.rfind("OK stream", 0) != 0)
          throw Error("download: " + status);
        // Decode while receiving (§4.1); with threads >= 2 the blocks
        // inflate on the decoder's pool while later ones arrive.
        core::InterleavedDownloader().feed(
            dec,
            [&](std::uint8_t* dst, std::size_t max) {
              const std::size_t n = s.recv_some(dst, max);
              if (n) maybe_test_crash();
              return n;
            },
            out.data);
        // A short stream keeps the decoder: the resume continues it.
        if (!dec.finished()) throw Error("download: stream ended early");
        dec.verify();  // a CRC mismatch fails the decoder
        out.stats.block_infos = dec.block_infos();
        out.stats.blocks = out.stats.block_infos.size();
        out.stats.bytes_on_wire = dec.bytes_fed();
      } else {
        // raw/full: "OK <remaining> <total> <crc32>"
        std::istringstream iss(status);
        std::string ok;
        std::uint64_t remaining = 0, total = 0;
        std::uint32_t crc = 0;
        if (!(iss >> ok >> remaining >> total >> crc) || ok != "OK")
          throw Error("download: " + status);
        if (!partial.empty() && total != partial_total) {
          // The file changed server-side between attempts; the partial
          // prefix no longer belongs to this payload.
          partial.clear();
          throw Error("download: payload changed between attempts");
        }
        partial_total = total;
        if (recv_frame_header(s) != remaining)
          throw Error("download: frame disagrees with status");

        // Receive into partial's tail, grown at most one chunk past what
        // has arrived (never by the status line's claim). On any throw
        // it is trimmed back to the bytes received: the resume offset.
        constexpr std::size_t kChunk = 32 * 1024;
        std::size_t got = partial.size();
        std::uint64_t left = remaining;
        try {
          while (left > 0) {
            partial.resize(got + static_cast<std::size_t>(
                                     std::min<std::uint64_t>(kChunk, left)));
            const std::size_t n =
                s.recv_some(partial.data() + got, partial.size() - got);
            if (n == 0) throw Error("net: peer closed mid-message");
            maybe_test_crash();
            got += n;
            left -= n;
          }
        } catch (...) {
          partial.resize(got);
          throw;
        }
        if (partial.size() != total)
          throw Error("download: size mismatch after reassembly");
        if (crc32(partial) != crc) {
          partial.clear();  // corrupted somewhere; no byte is trustworthy
          throw Error("download: payload CRC mismatch");
        }
        out.stats.bytes_on_wire = partial.size();
        out.data = mode == "raw"
                       ? std::move(partial)
                       : compress::DeflateCodec().decompress(partial);
      }
      out.stats.bytes_decoded = out.data.size();
      record_attempt();
      ECOMP_SLIDING_OBSERVE("net.client.request_us", elapsed_us(t0));
      event({.stage = "stream",
             .bytes_wire = static_cast<std::int64_t>(out.stats.bytes_on_wire),
             .bytes_raw = static_cast<std::int64_t>(out.stats.bytes_decoded),
             .blocks = selective ? static_cast<std::int64_t>(out.stats.blocks)
                                 : -1,
             .attempt = out.attempts});
      event({.stage = "close"});
      return out;
    } catch (const Error& e) {
      if (dec.failed()) {
        // A block or the CRC failed to decode: the stream is poisoned,
        // so no byte of it is trustworthy — start over from offset 0.
        dec = core::SelectiveStreamDecoder(policy.threads);
        out.data.clear();
      }
      last_error = e.what();
      record_attempt();
      event({.stage = "error", .attempt = out.attempts, .err = last_error});
    }
  }

  if (selective && policy.salvage && dec.bytes_fed() > 0) {
    // Salvage: the blocks decoded so far, with everything the framing
    // declared beyond them booked as lost.
    dec.set_tolerant(true);
    out.recovery = dec.finish();
    out.complete = false;
    out.stats.bytes_on_wire = dec.bytes_fed();
    out.stats.bytes_decoded = out.data.size();
    ECOMP_SLIDING_OBSERVE("net.client.request_us", elapsed_us(t0));
    event({.stage = "salvage",
           .bytes_wire = static_cast<std::int64_t>(out.stats.bytes_on_wire),
           .bytes_raw = static_cast<std::int64_t>(out.stats.bytes_decoded),
           .attempt = out.attempts});
    event({.stage = "close"});
    return out;
  }
  event({.stage = "close", .attempt = out.attempts});
  throw Error("download: retries exhausted: " + last_error);
}

std::size_t upload_resilient(std::uint16_t port, const std::string& name,
                             ByteSpan data,
                             const compress::SelectivePolicy& policy,
                             const TransferPolicy& tp, int* attempts) {
  // One trace context across every replay.
  const obs::TraceContext ctx = client_trace();
  obs::TraceScope scope(ctx);
  const ClientEvents event{ctx.trace_id, name, "put"};
  Rng rng(tp.jitter_seed);
  std::string last_error;
  std::uint32_t busy_floor_ms = 0;
  for (int attempt = 0; attempt <= tp.max_retries; ++attempt) {
    if (attempt > 0) {
      backoff(tp, attempt, rng, &busy_floor_ms);
      event({.stage = "retry", .attempt = attempt + 1});
    }
    if (attempts) *attempts = attempt + 1;
    // PUT replaces the whole file, so a replay after any failure is
    // safe — no server-side partial state survives a dead connection.
    try {
      ECOMP_TRACE_SPAN("net.upload", "net");
      ECOMP_COUNT("net.round_trips");
      const auto t0 = std::chrono::steady_clock::now();
      Socket s = connect_local(port);
      if (tp.timeout_ms) {
        s.set_recv_timeout_ms(tp.timeout_ms);
        s.set_send_timeout_ms(tp.timeout_ms);
      }
      event({.stage = "connect"});
      send_frame(s, as_bytes(with_trace("PUT " + name, ctx)));
      event({.stage = "request"});
      compress::SelectiveStreamEncoder enc(data, policy);
      std::size_t sent = 0;
      while (!enc.done()) {
        const Bytes chunk = enc.next_chunk();
        if (!chunk.empty()) {
          s.send_all(chunk);
          sent += chunk.size();
        }
      }
      const std::string status = ecomp::to_string(recv_frame(s));
      if (status.rfind("OK stored", 0) != 0) {
        event({.stage = "error", .err = "upload: " + status});
        throw Error("upload: " + status);
      }
      ECOMP_SLIDING_OBSERVE("net.client.request_us", elapsed_us(t0));
      event({.stage = "stream",
             .bytes_wire = static_cast<std::int64_t>(sent),
             .bytes_raw = static_cast<std::int64_t>(data.size())});
      event({.stage = "close"});
      return sent;
    } catch (const Error& e) {
      last_error = e.what();
      // A BUSY shed surfaces as "upload: BUSY <ms>" when the container
      // fit the socket buffer (the status was readable); honor the
      // retry-after. A mid-stream broken pipe falls back to plain
      // backoff.
      if (const std::int64_t retry_after = parse_busy_retry_ms(last_error);
          retry_after >= 0)
        busy_floor_ms = static_cast<std::uint32_t>(retry_after);
    }
  }
  throw Error("upload: retries exhausted: " + last_error);
}

std::string fetch_stats(std::uint16_t port, const std::string& format) {
  Socket s = connect_local(port);
  send_frame(s, as_bytes("STATS " + format));
  const std::string status = ecomp::to_string(recv_frame(s));
  if (status.rfind("OK ", 0) != 0) throw Error("stats: " + status);
  // The payload is one frame but can far exceed the control cap.
  const Bytes payload = recv_frame(s, 16u * 1024 * 1024);
  return ecomp::to_string(payload);
}

}  // namespace ecomp::net
