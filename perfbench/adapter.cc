// The one file that includes ecomp headers (see adapter.h).
//
// The traced twins below rebuild each client entry point from the
// program's public calls so the benchmark can put a span around every
// call: same request lines, same socket deadlines, same decode path,
// same retry and backoff schedule. They differ from the entry points in
// one way only: a failed attempt restarts from offset 0 instead of
// resuming, which only matters when a transfer breaks mid-stream.
#include "adapter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "compress/codec.h"
#include "compress/deflate.h"
#include "compress/selective.h"
#include "core/energy_model.h"
#include "core/interleave.h"
#include "core/planner.h"
#include "net/proxy.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/transfer.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace perfbench {
namespace {

namespace compress = ecomp::compress;
namespace core = ecomp::core;
namespace net = ecomp::net;
namespace obs = ecomp::obs;
namespace sim = ecomp::sim;
using ecomp::Bytes;
using ecomp::Error;

const compress::SelectivePolicy& policy() {
  static const compress::SelectivePolicy p =
      core::make_selective_policy(core::EnergyModel::paper_11mbps());
  return p;
}

/// Retry-after of a "BUSY <ms>" reply anywhere in `s`; -1 when absent.
std::int64_t busy_retry_ms(const std::string& s) {
  const auto pos = s.find("BUSY ");
  if (pos == std::string::npos) return -1;
  std::istringstream iss(s.substr(pos + 5));
  std::int64_t ms = -1;
  return (iss >> ms) ? ms : -1;
}

std::string with_trace(std::string line, const obs::TraceContext& ctx) {
  if (ctx.valid()) line += " trace=" + ctx.hex();
  return line;
}

obs::TraceContext current_or_mint() {
  obs::TraceContext ctx = obs::current_trace();
  return ctx.valid() ? ctx : obs::TraceContext::mint();
}

/// download_resilient's backoff: exponential with +-50% jitter.
std::uint32_t backoff_ms(const net::TransferPolicy& p, int attempt,
                         ecomp::Rng& rng) {
  double ms = p.backoff_base_ms;
  for (int i = 1; i < attempt && ms < p.backoff_max_ms; ++i) ms *= 2.0;
  ms = std::min(ms, static_cast<double>(p.backoff_max_ms));
  return static_cast<std::uint32_t>(ms * (0.5 + rng.uniform()));
}

void sleep_ms(std::uint32_t ms, SpanSink* sink) {
  ScopedSpan sp(sink, "net.backoff");
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::vector<Block> to_blocks(const std::vector<compress::BlockInfo>& infos) {
  std::vector<Block> out;
  out.reserve(infos.size());
  for (const auto& b : infos)
    out.push_back({static_cast<std::uint32_t>(b.raw_size),
                   static_cast<std::uint32_t>(b.payload_size), b.compressed});
  return out;
}

/// net::download, one call per span.
Transfer traced_download(std::uint16_t port, const std::string& name,
                         Mode mode, SpanSink* sink) {
  const obs::TraceContext ctx = current_or_mint();
  const std::string m = mode_name(mode);
  Transfer t;
  net::Socket s;
  {
    ScopedSpan sp(sink, "net.connect");
    s = net::connect_local(port);
  }
  std::string status;
  {
    ScopedSpan sp(sink, "net.wait_status");
    net::send_frame(s, ecomp::as_bytes(with_trace("GET " + m + " " + name, ctx)));
    status = ecomp::to_string(net::recv_frame(s));
  }
  if (status.rfind("OK ", 0) != 0) throw Error("download: " + status);
  if (mode == Mode::Selective) {
    core::InterleavedDownloader::Options opt;
    opt.chunk_bytes = 16 * 1024;
    opt.threads = 1;
    const core::InterleavedDownloader dl(opt);
    std::vector<compress::BlockInfo> infos;
    ScopedSpan sp(sink, "core.interleaved_run");
    t.data = dl.run(
        [&](std::uint8_t* dst, std::size_t max) -> std::size_t {
          ScopedSpan r(sink, "net.recv");
          const std::size_t n = s.recv_some(dst, max);
          t.wire += n;
          return n;
        },
        [](ecomp::ByteSpan) {}, &infos);
    t.blocks = to_blocks(infos);
    return t;
  }
  Bytes payload;
  {
    ScopedSpan sp(sink, "net.recv");
    const std::uint32_t size = net::recv_frame_header(s);
    payload = s.recv_exact(size);
  }
  t.wire = payload.size();
  if (mode == Mode::Raw) {
    t.data = std::move(payload);
  } else {
    ScopedSpan sp(sink, "compress.inflate");
    t.data = compress::DeflateCodec().decompress(payload);
  }
  return t;
}

/// net::download_resilient with the default TransferPolicy.
Transfer traced_resilient(std::uint16_t port, const std::string& name,
                          Mode mode, SpanSink* sink) {
  const net::TransferPolicy policy;
  const obs::TraceContext ctx = current_or_mint();
  const std::string m = mode_name(mode);
  ecomp::Rng rng(policy.jitter_seed);
  Transfer t;
  std::string last_error = "no attempts made";
  std::uint32_t busy_floor_ms = 0;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      sleep_ms(std::max(backoff_ms(policy, attempt, rng), busy_floor_ms), sink);
      busy_floor_ms = 0;
    }
    Bytes partial;
    try {
      net::Socket s;
      {
        ScopedSpan sp(sink, "net.connect");
        s = net::connect_local(port);
      }
      s.set_recv_timeout_ms(policy.timeout_ms);
      s.set_send_timeout_ms(policy.timeout_ms);
      std::string status;
      {
        ScopedSpan sp(sink, "net.wait_status");
        net::send_frame(s, ecomp::as_bytes(with_trace(
                               "GET-RANGE " + m + " " + name + " 0", ctx)));
        status = ecomp::to_string(net::recv_frame(s));
      }
      if (status.rfind("BUSY", 0) == 0) {
        busy_floor_ms = static_cast<std::uint32_t>(
            std::max<std::int64_t>(0, busy_retry_ms(status)));
        last_error = "download: " + status;
        continue;
      }
      if (mode == Mode::Selective) {
        if (status.rfind("OK stream", 0) != 0)
          throw Error("download: " + status);
        Bytes buf(16 * 1024);
        while (true) {
          std::size_t n = 0;
          {
            ScopedSpan sp(sink, "net.recv");
            n = s.recv_some(buf.data(), buf.size());
          }
          if (n == 0) break;
          partial.insert(partial.end(), buf.begin(), buf.begin() + n);
        }
        ScopedSpan sp(sink, "core.decode");
        core::SelectiveStreamDecoder dec;
        dec.feed(partial);
        Bytes data;
        while (auto block = dec.poll())
          data.insert(data.end(), block->begin(), block->end());
        if (!dec.finished()) throw Error("download: stream ended early");
        dec.verify();
        t.data = std::move(data);
        t.wire = partial.size();
        t.blocks = to_blocks(dec.block_infos());
        return t;
      }
      std::istringstream iss(status);
      std::string ok;
      std::uint64_t remaining = 0, total = 0;
      std::uint32_t crc = 0;
      if (!(iss >> ok >> remaining >> total >> crc) || ok != "OK")
        throw Error("download: " + status);
      {
        ScopedSpan sp(sink, "net.recv");
        if (net::recv_frame_header(s) != remaining)
          throw Error("download: frame disagrees with status");
      }
      Bytes buf(32 * 1024);
      for (std::uint64_t left = remaining; left > 0;) {
        std::size_t n = 0;
        {
          ScopedSpan sp(sink, "net.recv");
          n = s.recv_some(buf.data(),
                          static_cast<std::size_t>(
                              std::min<std::uint64_t>(buf.size(), left)));
        }
        if (n == 0) throw Error("net: peer closed mid-message");
        partial.insert(partial.end(), buf.begin(), buf.begin() + n);
        left -= n;
      }
      if (partial.size() != total)
        throw Error("download: size mismatch after reassembly");
      {
        ScopedSpan sp(sink, "util.crc32");
        if (ecomp::crc32(partial) != crc)
          throw Error("download: payload CRC mismatch");
      }
      t.wire = partial.size();
      if (mode == Mode::Raw) {
        t.data = partial;  // the entry point copies here as well
      } else {
        ScopedSpan sp(sink, "compress.inflate");
        t.data = compress::DeflateCodec().decompress(partial);
      }
      return t;
    } catch (const Error& e) {
      last_error = e.what();
    }
  }
  throw Error("download: retries exhausted: " + last_error);
}

/// net::upload_resilient with the default TransferPolicy.
std::uint64_t traced_upload(std::uint16_t port, const std::string& name,
                            const Buf& data, SpanSink* sink) {
  const net::TransferPolicy tp;
  const obs::TraceContext ctx = current_or_mint();
  ecomp::Rng rng(tp.jitter_seed);
  std::string last_error;
  std::uint32_t busy_floor_ms = 0;
  for (int attempt = 0; attempt <= tp.max_retries; ++attempt) {
    if (attempt > 0) {
      sleep_ms(std::max(backoff_ms(tp, attempt, rng), busy_floor_ms), sink);
      busy_floor_ms = 0;
    }
    try {
      net::Socket s;
      {
        ScopedSpan sp(sink, "net.connect");
        s = net::connect_local(port);
      }
      s.set_recv_timeout_ms(tp.timeout_ms);
      s.set_send_timeout_ms(tp.timeout_ms);
      {
        ScopedSpan sp(sink, "net.send");
        net::send_frame(s, ecomp::as_bytes(with_trace("PUT " + name, ctx)));
      }
      compress::SelectiveStreamEncoder enc(data, policy());
      std::uint64_t sent = 0;
      std::string status;
      for (bool last = false; !last;) {
        Bytes chunk;
        {
          ScopedSpan sp(sink, "compress.put_encode");
          chunk = enc.next_chunk();
        }
        sent += chunk.size();
        last = enc.done();
        if (!last) {
          ScopedSpan sp(sink, "net.send");
          if (!chunk.empty()) s.send_all(chunk);
          continue;
        }
        // On loopback the server often decodes, stores and replies inside
        // the sender's last send call, so the wait starts with that send.
        ScopedSpan sp(sink, "net.put_wait_status");
        if (!chunk.empty()) s.send_all(chunk);
        status = ecomp::to_string(net::recv_frame(s));
      }
      if (status.rfind("OK stored", 0) != 0) throw Error("upload: " + status);
      return sent;
    } catch (const Error& e) {
      last_error = e.what();
      if (const std::int64_t ms = busy_retry_ms(last_error); ms >= 0)
        busy_floor_ms = static_cast<std::uint32_t>(ms);
    }
  }
  throw Error("upload: retries exhausted: " + last_error);
}

}  // namespace

std::vector<File> make_corpus(double scale) {
  std::vector<File> out;
  for (const auto& f : ecomp::workload::table2())
    out.push_back({f.name, ecomp::workload::generate(f, scale)});
  return out;
}

BuildInfo build_info() {
  const obs::Provenance p = obs::collect_provenance();
  return {p.git_sha, p.simd_level, p.obs_enabled};
}

struct Proxy::Impl {
  std::unique_ptr<net::ProxyServer> server;
  double setup_s = 0.0;
};

Proxy::Proxy(const std::vector<File>& files, const ServerConfig& cfg)
    : impl_(std::make_unique<Impl>()) {
  net::FileStore store;
  for (const File& f : files) store.put(f.name, f.data);
  net::ProxyOptions opt;
  opt.precompress = cfg.precompress;
  opt.workers = cfg.workers;
  if (!cfg.cache) opt.cache_capacity_bytes = 0;
  const std::int64_t t0 = now_ns();
  impl_->server =
      std::make_unique<net::ProxyServer>(std::move(store), policy(), opt);
  impl_->setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
}

Proxy::~Proxy() = default;

std::uint16_t Proxy::port() const { return impl_->server->port(); }
double Proxy::setup_s() const { return impl_->setup_s; }
void Proxy::stop() { impl_->server->stop(); }

ServerCounters Proxy::counters() const {
  const obs::StatsSnapshot s = impl_->server->stats();
  ServerCounters c;
  c.cache_hits = s.cache.hits;
  c.cache_misses = s.cache.misses;
  c.cache_waits = s.cache.waits;
  c.cache_builds = s.cache.builds;
  for (const auto& h : s.histograms)
    if (h.name == "net.proxy.request_us") {
      c.request_ms_p50 = h.snap.p50 / 1e3;
      c.request_ms_p99 = h.snap.p99 / 1e3;
    }
  return c;
}

Transfer get(std::uint16_t port, const std::string& name, Mode mode,
             Client client, SpanSink* sink) {
  if (client == Client::Resilient) {
    if (sink) return traced_resilient(port, name, mode, sink);
    net::DownloadOutcome out =
        net::download_resilient(port, name, mode_name(mode), {});
    if (!out.complete) throw Error("download: salvaged an incomplete stream");
    Transfer t;
    t.data = std::move(out.data);
    t.wire = out.stats.bytes_on_wire;
    t.blocks = to_blocks(out.stats.block_infos);
    return t;
  }
  if (sink) return traced_download(port, name, mode, sink);
  net::DownloadStats st;
  Transfer t;
  t.data = net::download(port, name, mode_name(mode), &st);
  t.wire = st.bytes_on_wire;
  t.blocks = to_blocks(st.block_infos);
  return t;
}

std::uint64_t put(std::uint16_t port, const std::string& name,
                  const Buf& data, SpanSink* sink) {
  if (sink) return traced_upload(port, name, data, sink);
  return net::upload_resilient(port, name, data, policy(), {});
}

struct Codecs::Impl {
  std::unique_ptr<compress::Codec> codec[kCodecCount];
};

Codecs::Codecs() : impl_(std::make_unique<Impl>()) {
  for (int c = 0; c < kCodecCount; ++c)
    impl_->codec[c] = compress::make_codec(codec_name(static_cast<Codec>(c)));
}

Codecs::~Codecs() = default;

CodecResult Codecs::round_trip(Codec c, const Buf& data,
                               SpanSink* sink) const {
  static const char* const kEncode[kCodecCount] = {
      "compress.deflate.encode", "compress.lzw.encode", "compress.bwt.encode"};
  static const char* const kDecode[kCodecCount] = {
      "compress.deflate.decode", "compress.lzw.decode", "compress.bwt.decode"};
  const int i = static_cast<int>(c);
  const compress::Codec& codec = *impl_->codec[i];
  CodecResult r;
  Bytes packed;
  {
    ScopedSpan sp(sink, kEncode[i]);
    const std::int64_t t0 = thread_cpu_ns();
    packed = codec.compress(data);
    r.encode_s = static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
  }
  r.compressed = packed.size();
  {
    ScopedSpan sp(sink, kDecode[i]);
    const std::int64_t t0 = thread_cpu_ns();
    r.decoded = codec.decompress(packed);
    r.decode_s = static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
  }
  return r;
}

double price_get(std::uint64_t raw, std::uint64_t wire,
                 const std::vector<Block>& blocks, Mode mode, Client client,
                 bool on_demand) {
  const sim::TransferSimulator sim;  // iPAQ, 11 Mb/s
  const double raw_mb = static_cast<double>(raw) / 1e6;
  if (mode == Mode::Raw) return sim.download_uncompressed(raw_mb).energy_j;
  sim::TransferOptions opt;
  if (mode == Mode::Full) {
    if (on_demand) opt.on_demand = sim::OnDemand::Sequential;
    return sim
        .download_compressed(raw_mb, static_cast<double>(wire) / 1e6,
                             "deflate", opt)
        .energy_j;
  }
  // download decodes each block as it lands; download_resilient buffers
  // the whole container first.
  opt.interleave = client == Client::Download;
  if (on_demand) opt.on_demand = sim::OnDemand::Overlapped;
  std::vector<sim::BlockTransfer> bt;
  bt.reserve(blocks.size());
  for (const Block& b : blocks)
    bt.push_back({static_cast<double>(b.raw) / 1e6,
                  static_cast<double>(b.payload) / 1e6, b.compressed});
  return sim.download_selective(bt, "deflate", opt).energy_j;
}

double price_put(std::uint64_t raw, std::uint64_t wire) {
  const sim::TransferSimulator sim;
  return sim
      .upload_compressed(static_cast<double>(raw) / 1e6,
                         static_cast<double>(wire) / 1e6, "deflate", {})
      .energy_j;
}

double price_codec(Codec c, std::uint64_t raw, std::uint64_t compressed) {
  const sim::TransferSimulator sim;
  return sim
      .download_compressed(static_cast<double>(raw) / 1e6,
                           static_cast<double>(compressed) / 1e6,
                           codec_name(c), {})
      .energy_j;
}

double replay_encode_s(const Buf& data, Mode mode) {
  const std::int64_t t0 = now_ns();
  if (mode == Mode::Selective)
    (void)compress::selective_compress(data, policy(),
                                       compress::kDefaultBlockSize, 9, 1);
  else if (mode == Mode::Full)
    (void)compress::DeflateCodec(9).compress(data);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::optional<std::map<std::string, std::uint64_t>> registry_counters() {
  if (!obs::kObsEnabled) return std::nullopt;
  return obs::Registry::global().counter_values();
}

std::optional<double> registry_sliding_p99(const std::string& name) {
  if (!obs::kObsEnabled) return std::nullopt;
  for (const auto& [n, snap] : obs::Registry::global().sliding_snapshots())
    if (n == name) return snap.p99;
  return std::nullopt;
}

void registry_reset() { obs::Registry::global().reset(); }

std::string capture_request(Client client, Mode mode, const std::string& name,
                            bool traced, std::uint64_t trace_id) {
  const net::Listener listener;
  std::atomic<bool> done{false};
  std::string first;
  // Answer every attempt with ERR so the client gives up quickly; keep
  // the first request frame.
  std::thread server([&] {
    while (true) {
      try {
        net::Socket c = listener.accept();
        if (done.load()) return;
        const std::string line = ecomp::to_string(net::recv_frame(c));
        if (first.empty()) first = line;
        net::send_frame(c, ecomp::as_bytes(std::string("ERR capture")));
      } catch (const std::exception&) {
        if (done.load()) return;
      }
    }
  });
  {
    obs::TraceContext ctx;
    ctx.trace_id = trace_id;
    const obs::TraceScope scope(ctx);
    SpanSink sink;
    SpanSink* s = traced ? &sink : nullptr;
    try {
      if (client == Client::Upload)
        put(listener.port(), name, Buf(5000, 'x'), s);
      else
        get(listener.port(), name, mode, client, s);
    } catch (const std::exception&) {
      // Expected: the listener refuses every attempt.
    }
  }
  done.store(true);
  try {
    net::connect_local(listener.port());  // wake the accept
  } catch (const std::exception&) {
  }
  server.join();
  return first;
}

}  // namespace perfbench
