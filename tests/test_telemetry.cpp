// Observability suite: sliding-window quantile histograms, wire-level
// trace propagation, JSONL event logs, and the proxy STATS surface.
//
// The headline acceptance test drives a fault-injected 50-request load
// against a live proxy and checks that `ecomp stats --json` reports
// request-latency quantiles within the histogram's documented bucket
// error of ground-truth per-request timings, and that every request's
// trace id shows up in both the client-side and proxy-side event logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cli/cli.h"
#include "compress/selective.h"
#include "net/fault.h"
#include "net/proxy.h"
#include "obs/events.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace ecomp {
namespace {

namespace fs = std::filesystem;
using obs::SlidingHistogram;

// ------------------------------------------------------ bucket math

TEST(SlidingHistogramBuckets, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    const int idx = SlidingHistogram::bucket_index(v);
    EXPECT_EQ(SlidingHistogram::bucket_lower(idx), v);
    EXPECT_EQ(SlidingHistogram::bucket_upper(idx), v + 1);
  }
}

TEST(SlidingHistogramBuckets, IndexIsMonotoneAndContainsValue) {
  int prev = -1;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{15}, std::uint64_t{16},
                          std::uint64_t{17}, std::uint64_t{100},
                          std::uint64_t{1000}, std::uint64_t{12345},
                          std::uint64_t{1} << 20, std::uint64_t{1} << 40,
                          (std::uint64_t{1} << 40) + 12345}) {
    const int idx = SlidingHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
    ASSERT_LT(idx, SlidingHistogram::kBuckets);
    EXPECT_LE(SlidingHistogram::bucket_lower(idx), v);
    EXPECT_LT(v, SlidingHistogram::bucket_upper(idx)) << v;
  }
  // The top bucket's upper bound saturates at the maximum value.
  const int top = SlidingHistogram::bucket_index(~std::uint64_t{0});
  ASSERT_LT(top, SlidingHistogram::kBuckets);
  EXPECT_LE(SlidingHistogram::bucket_lower(top), ~std::uint64_t{0});
  EXPECT_EQ(SlidingHistogram::bucket_upper(top), ~std::uint64_t{0});
}

TEST(SlidingHistogramBuckets, BucketsTileTheRange) {
  // bucket_upper(i) == bucket_lower(i+1): no gaps, no overlaps.
  for (int i = 0; i + 1 < SlidingHistogram::kBuckets; ++i)
    EXPECT_EQ(SlidingHistogram::bucket_upper(i),
              SlidingHistogram::bucket_lower(i + 1))
        << i;
}

TEST(SlidingHistogramBuckets, RelativeErrorWithinBound) {
  // The midpoint representative is within the documented bucket error
  // of every value in the bucket.
  std::uint64_t v = 1;
  while (v < (std::uint64_t{1} << 50)) {
    const int idx = SlidingHistogram::bucket_index(v);
    const double mid = SlidingHistogram::bucket_mid(idx);
    const double rel =
        std::abs(mid - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LE(rel, SlidingHistogram::kMaxRelativeError) << v;
    v += 1 + v / 3;  // dense at the bottom, sparse at the top
  }
}

// ------------------------------------------------------ quantiles

/// Ground-truth quantile with the histogram's own rank convention
/// (1-based ceil rank over the sorted sample).
double true_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return xs[rank - 1];
}

TEST(SlidingHistogramQuantiles, UniformRampWithinBucketError) {
  SlidingHistogram h;
  std::vector<double> xs;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.record(v);
    xs.push_back(static_cast<double>(v));
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double est = h.quantile(q);
    const double truth = true_quantile(xs, q);
    EXPECT_NEAR(est, truth, truth * SlidingHistogram::kMaxRelativeError + 1.0)
        << "q=" << q;
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count, 1000u);
  EXPECT_TRUE(snap.from_window);
  EXPECT_DOUBLE_EQ(snap.total_sum, 500500.0);
}

TEST(SlidingHistogramQuantiles, EmptyHistogramIsZero) {
  SlidingHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count, 0u);
  EXPECT_EQ(snap.p99, 0.0);
}

TEST(SlidingHistogramQuantiles, WindowExpiresButTotalsSurvive) {
  SlidingHistogram::Options opt;
  opt.window_s = 1.0;
  opt.slices = 4;
  SlidingHistogram h(opt);
  std::uint64_t now = 0;
  h.set_clock_for_test([&now] { return now; });

  for (int i = 0; i < 100; ++i) h.record(100);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.window_count, 100u);
  EXPECT_TRUE(snap.from_window);

  now += 5'000'000'000ull;  // 5 s: far past the 1 s window
  snap = h.snapshot();
  EXPECT_EQ(snap.window_count, 0u);
  EXPECT_FALSE(snap.from_window);
  EXPECT_EQ(snap.total_count, 100u);
  // All-time distribution stands in for quantiles on a drained window.
  EXPECT_NEAR(h.quantile(0.5), 100.0,
              100.0 * SlidingHistogram::kMaxRelativeError);

  // New recordings dominate the window even though old totals remain.
  for (int i = 0; i < 50; ++i) h.record(10000);
  snap = h.snapshot();
  EXPECT_EQ(snap.window_count, 50u);
  EXPECT_TRUE(snap.from_window);
  EXPECT_NEAR(snap.p50, 10000.0,
              10000.0 * SlidingHistogram::kMaxRelativeError);
  EXPECT_EQ(snap.total_count, 150u);
}

TEST(SlidingHistogramQuantiles, RatePerSecondUsesCoveredWindow) {
  SlidingHistogram::Options opt;
  opt.window_s = 10.0;
  SlidingHistogram h(opt);
  std::uint64_t now = 0;
  h.set_clock_for_test([&now] { return now; });
  for (int i = 0; i < 500; ++i) h.record(1);
  now += 5'000'000'000ull;  // 5 s elapsed, window covers all of it
  const auto snap = h.snapshot();
  EXPECT_NEAR(snap.rate_per_s, 100.0, 1.0);
}

TEST(SlidingHistogramConcurrency, TotalsExactUnderConcurrentRecording) {
  SlidingHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(i % 1024));
    });
  for (auto& t : ts) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Quantiles remain sane (i % 1024 is uniform on [0, 1023]).
  EXPECT_NEAR(h.quantile(0.5), 512.0, 512.0 * 0.25);
}

TEST(SlidingHistogramConcurrency, EpochRolloverAcrossFullWindow) {
  // Injected clock marches across two full 60 s windows (default
  // Options) while recorder threads hammer: slice epochs roll over
  // under fire, totals stay exact, and a drained window falls back to
  // the all-time distribution until the next record flips it back.
  SlidingHistogram h;
  std::atomic<std::uint64_t> now{0};
  h.set_clock_for_test(
      [&now] { return now.load(std::memory_order_relaxed); });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> recorded{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(100);
        recorded.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // 64 half-slice steps = 2x the full window, snapshotting mid-roll.
  // Each step waits for fresh records so every slice really gets hit.
  for (int step = 0; step < 64; ++step) {
    const std::uint64_t before = recorded.load(std::memory_order_relaxed);
    while (recorded.load(std::memory_order_relaxed) < before + 100)
      std::this_thread::yield();
    now.fetch_add(3'750'000'000ull);  // 3.75 s = half of a 7.5 s slice
    const auto mid = h.snapshot();
    EXPECT_LE(mid.window_count, mid.total_count);
  }
  stop.store(true);
  for (auto& t : ts) t.join();

  const std::uint64_t total = recorded.load();
  auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count, total);  // no rollover ever lost a count
  ASSERT_GT(total, 0u);
  EXPECT_TRUE(snap.from_window);  // recorders ran into the live slice
  EXPECT_GT(snap.window_count, 0u);
  EXPECT_LT(snap.window_count, total);  // old slices really expired
  EXPECT_NEAR(h.quantile(0.99), 100.0,
              100.0 * SlidingHistogram::kMaxRelativeError);

  // Silence past the whole window: the window drains, quantiles fall
  // back to all-time, and the snapshot says so.
  now.fetch_add(120'000'000'000ull);
  snap = h.snapshot();
  EXPECT_EQ(snap.window_count, 0u);
  EXPECT_FALSE(snap.from_window);
  EXPECT_EQ(snap.total_count, total);
  EXPECT_NEAR(h.quantile(0.5), 100.0,
              100.0 * SlidingHistogram::kMaxRelativeError);

  // The next record flips the snapshot back onto the live window.
  h.record(5000);
  snap = h.snapshot();
  EXPECT_TRUE(snap.from_window);
  EXPECT_EQ(snap.window_count, 1u);
  EXPECT_EQ(snap.total_count, total + 1);
  EXPECT_NEAR(snap.p50, 5000.0,
              5000.0 * SlidingHistogram::kMaxRelativeError);
}

// ------------------------------------------------------ registry

TEST(RegistrySliding, NamedSlidingHistogramsSortedAndResettable) {
  auto& reg = obs::Registry::global();
  reg.reset();
  auto& a = reg.sliding("ztest.b_us");
  auto& b = reg.sliding("ztest.a_us");
  a.record(10);
  b.record(20);
  EXPECT_EQ(&a, &reg.sliding("ztest.b_us"));  // stable references

  const auto snaps = reg.sliding_snapshots();
  std::vector<std::string> names;
  for (const auto& [name, _] : snaps) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  const std::string json = reg.to_json();
  const auto doc = obs::parse_json(json);
  const auto* sliding = doc.find("sliding");
  ASSERT_NE(sliding, nullptr);
  const auto* entry = sliding->find("ztest.a_us");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->number_or("count", -1), 1.0);
  EXPECT_GT(entry->number_or("p50", 0.0), 0.0);

  reg.reset();
  EXPECT_EQ(a.snapshot().total_count, 0u);  // reset, reference still valid
}

// ------------------------------------------------------ trace context

TEST(TraceContext, MintHexRoundTrip) {
  const auto a = obs::TraceContext::mint();
  const auto b = obs::TraceContext::mint();
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.hex().size(), 16u);
  EXPECT_EQ(obs::TraceContext::from_hex(a.hex()).trace_id, a.trace_id);
  EXPECT_FALSE(obs::TraceContext::from_hex("nope").valid());
  EXPECT_FALSE(obs::TraceContext::from_hex("123").valid());
  EXPECT_FALSE(obs::TraceContext::from_hex("zzzzzzzzzzzzzzzz").valid());
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  EXPECT_FALSE(obs::current_trace().valid());
  {
    const auto ctx = obs::TraceContext::mint();
    obs::TraceScope scope(ctx);
    EXPECT_EQ(obs::current_trace().trace_id, ctx.trace_id);
  }
  EXPECT_FALSE(obs::current_trace().valid());
}

// ------------------------------------------------------ event log

/// Parse a JSONL file; every line must be valid JSON.
std::vector<obs::JsonValue> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<obs::JsonValue> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(obs::parse_json(line));
  }
  return out;
}

/// All distinct "trace" values of events in `doc`s.
std::set<std::string> trace_ids(const std::vector<obs::JsonValue>& events) {
  std::set<std::string> ids;
  for (const auto& e : events)
    if (const auto* t = e.find("trace")) ids.insert(t->string);
  return ids;
}

class TelemetryProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ecomp_telemetry_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    client_log_ = (dir_ / "client.jsonl").string();
    proxy_log_ = (dir_ / "proxy.jsonl").string();
    obs::EventLog::global().open(client_log_);
  }
  void TearDown() override {
    obs::EventLog::global().close();
    fs::remove_all(dir_);
  }

  net::FileStore store_with(const std::string& name, std::size_t bytes,
                            workload::FileKind kind = workload::FileKind::Xml) {
    net::FileStore store;
    data_ = workload::generate_kind(kind, bytes, /*seed=*/7, 0.3);
    store.put(name, data_);
    return store;
  }

  fs::path dir_;
  std::string client_log_, proxy_log_;
  Bytes data_;
};

TEST_F(TelemetryProxyTest, TraceEchoedAndLoggedOnBothSides) {
  net::ProxyServer server(store_with("f", 120000),
                          compress::SelectivePolicy::always());
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_);
  server.set_event_log(&proxy_log);

  net::DownloadStats stats;
  const Bytes got = net::download(server.port(), "f", "raw", &stats);
  EXPECT_EQ(got, data_);
  EXPECT_NE(stats.trace_id, 0u);
  EXPECT_TRUE(stats.trace_echoed);

  server.stop();
  obs::TraceContext ctx;
  ctx.trace_id = stats.trace_id;
  const auto client_events = read_jsonl(client_log_);
  const auto proxy_events = read_jsonl(proxy_log_);
  EXPECT_TRUE(trace_ids(client_events).count(ctx.hex()));
  EXPECT_TRUE(trace_ids(proxy_events).count(ctx.hex()));
  // Both sides logged the lifecycle stages around the transfer.
  std::set<std::string> proxy_stages, client_stages;
  for (const auto& e : proxy_events)
    proxy_stages.insert(e.find("stage")->string);
  for (const auto& e : client_events)
    client_stages.insert(e.find("stage")->string);
  for (const char* s : {"accept", "parse", "stream", "close"})
    EXPECT_TRUE(proxy_stages.count(s)) << s;
  for (const char* s : {"connect", "request", "stream", "close"})
    EXPECT_TRUE(client_stages.count(s)) << s;
}

TEST_F(TelemetryProxyTest, TraceSurvivesFaultMatrixRetries) {
  // One download per fault kind; the armed fault kills or degrades the
  // first connection, the retry succeeds — and every attempt carries
  // the same trace id into both logs.
  net::ProxyServer server(store_with("f", 150000),
                          compress::SelectivePolicy::always());
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_);
  server.set_event_log(&proxy_log);

  std::vector<std::uint64_t> ids;
  for (const net::FaultKind kind :
       {net::FaultKind::Drop, net::FaultKind::Truncate, net::FaultKind::Delay,
        net::FaultKind::Corrupt}) {
    net::FaultSpec spec;
    spec.kind = kind;
    spec.at_byte = 5000;
    spec.delay_ms = 30;
    server.set_fault_injector(std::make_shared<net::FaultInjector>(spec, 1));
    net::TransferPolicy tp;
    tp.timeout_ms = 3000;
    tp.resume = true;
    const auto out = net::download_resilient(server.port(), "f", "full", tp);
    EXPECT_EQ(out.data, data_) << net::to_string(kind);
    EXPECT_NE(out.stats.trace_id, 0u);
    EXPECT_TRUE(out.stats.trace_echoed);
    ids.push_back(out.stats.trace_id);
  }
  server.stop();
  const auto client_ids = trace_ids(read_jsonl(client_log_));
  const auto proxy_ids = trace_ids(read_jsonl(proxy_log_));
  for (const std::uint64_t id : ids) {
    obs::TraceContext ctx;
    ctx.trace_id = id;
    EXPECT_TRUE(client_ids.count(ctx.hex())) << ctx.hex();
    EXPECT_TRUE(proxy_ids.count(ctx.hex())) << ctx.hex();
  }
  // The retried transfers left retry markers under their trace ids.
  bool saw_retry = false;
  for (const auto& e : read_jsonl(client_log_))
    if (e.find("stage")->string == "retry") saw_retry = true;
  EXPECT_TRUE(saw_retry);
}

TEST_F(TelemetryProxyTest, TraceSurvivesSalvage) {
  net::ProxyServer server(store_with("f", 200000),
                          compress::SelectivePolicy::always(), 32768);
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_);
  server.set_event_log(&proxy_log);

  net::FaultSpec spec;
  spec.kind = net::FaultKind::Truncate;
  spec.at_byte = 20000;  // well inside the compressed container
  server.set_fault_injector(
      std::make_shared<net::FaultInjector>(spec, 100));  // every attempt
  net::TransferPolicy tp;
  tp.max_retries = 1;
  tp.timeout_ms = 2000;
  tp.resume = false;  // every attempt dies at the same offset
  tp.salvage = true;
  const auto out =
      net::download_resilient(server.port(), "f", "selective", tp);
  EXPECT_FALSE(out.complete);
  EXPECT_NE(out.stats.trace_id, 0u);
  server.stop();

  obs::TraceContext ctx;
  ctx.trace_id = out.stats.trace_id;
  bool salvage_logged = false;
  for (const auto& e : read_jsonl(client_log_)) {
    const auto* stage = e.find("stage");
    const auto* trace = e.find("trace");
    if (stage && stage->string == "salvage" && trace &&
        trace->string == ctx.hex())
      salvage_logged = true;
  }
  EXPECT_TRUE(salvage_logged);
  EXPECT_TRUE(trace_ids(read_jsonl(proxy_log_)).count(ctx.hex()));
}

TEST_F(TelemetryProxyTest, EventsCarryByteCountsAndParseAsJson) {
  net::ProxyServer server(store_with("f", 100000),
                          compress::SelectivePolicy::always());
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_);
  server.set_event_log(&proxy_log);
  net::DownloadStats stats;
  net::download(server.port(), "f", "selective", &stats);
  server.stop();

  bool saw_stream = false;
  for (const auto& e : read_jsonl(proxy_log_)) {  // every line parsed
    ASSERT_TRUE(e.is_object());
    EXPECT_NE(e.find("ts_ms"), nullptr);
    if (e.find("stage")->string == "stream") {
      saw_stream = true;
      EXPECT_EQ(e.number_or("bytes_raw", -1),
                static_cast<double>(data_.size()));
      EXPECT_EQ(e.number_or("bytes_wire", -1),
                static_cast<double>(stats.bytes_on_wire));
      EXPECT_GT(e.number_or("blocks", 0), 0.0);
      EXPECT_GT(e.number_or("j_est", 0.0), 0.0);  // ledgered energy
    }
  }
  EXPECT_TRUE(saw_stream);
}

TEST_F(TelemetryProxyTest, ClientLatencyIsOncePerTransferAndPerAttempt) {
#if !defined(ECOMP_OBS_ENABLED)
  GTEST_SKIP() << "reads the registry's net.client.* histograms";
#else
  // The first connection is cut mid-payload and the resume finishes
  // the transfer: one request_us sample for the transfer, one
  // attempt_us sample for each of its two connections.
  net::ProxyServer server(store_with("f", 120000),
                          compress::SelectivePolicy::always());
  net::FaultSpec spec;
  spec.kind = net::FaultKind::Truncate;
  spec.at_byte = 5000;
  server.set_fault_injector(std::make_shared<net::FaultInjector>(spec, 1));
  auto& request = obs::Registry::global().sliding("net.client.request_us");
  auto& attempt = obs::Registry::global().sliding("net.client.attempt_us");
  const std::uint64_t requests = request.snapshot().total_count;
  const std::uint64_t attempts = attempt.snapshot().total_count;
  net::TransferPolicy tp;
  tp.backoff_base_ms = 1;
  tp.backoff_max_ms = 5;
  const auto out = net::download_resilient(server.port(), "f", "full", tp);
  server.stop();
  EXPECT_EQ(out.data, data_);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(request.snapshot().total_count - requests, 1u);
  EXPECT_EQ(attempt.snapshot().total_count - attempts, 2u);
#endif
}

// ------------------------------------------------------ STATS surface

TEST_F(TelemetryProxyTest, StatsVerbServesAllThreeFormats) {
  net::ProxyServer server(store_with("f", 80000),
                          compress::SelectivePolicy::always());
  for (int i = 0; i < 3; ++i) net::download(server.port(), "f", "raw");
  EXPECT_ANY_THROW(net::download(server.port(), "missing", "raw"));

  const std::string text = net::fetch_stats(server.port(), "text");
  EXPECT_NE(text.find("requests_total"), std::string::npos);
  EXPECT_NE(text.find("net.proxy.request_us"), std::string::npos);

  const std::string prom = net::fetch_stats(server.port(), "prom");
  EXPECT_NE(prom.find("# TYPE ecomp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ecomp_net_proxy_request_us{quantile=\"0.99\"}"),
            std::string::npos);

  const auto doc = obs::parse_json(net::fetch_stats(server.port(), "json"));
  EXPECT_GE(doc.number_or("requests_total", 0), 4.0);
  EXPECT_GE(doc.number_or("errors_total", 0), 1.0);
  EXPECT_GT(doc.number_or("bytes_sent", 0), 0.0);
  EXPECT_GT(doc.number_or("energy_served_j", 0), 0.0);
  EXPECT_GT(doc.number_or("uptime_s", -1), 0.0);
  const auto* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* req = hists->find("net.proxy.request_us");
  ASSERT_NE(req, nullptr);
  EXPECT_GE(req->number_or("count", 0), 4.0);
  EXPECT_GT(req->number_or("p50", 0), 0.0);
  // Histogram keys arrive sorted (byte-stable rendering).
  std::vector<std::string> names;
  for (const auto& [name, _] : hists->object) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  server.stop();
}

TEST_F(TelemetryProxyTest, StatsCountsFaultsAndActiveConnections) {
  net::ProxyServer server(store_with("f", 60000),
                          compress::SelectivePolicy::always());
  net::FaultSpec spec;
  spec.kind = net::FaultKind::Drop;
  spec.at_byte = 1000;
  server.set_fault_injector(std::make_shared<net::FaultInjector>(spec, 2));
  for (int i = 0; i < 2; ++i)
    EXPECT_ANY_THROW(net::download(server.port(), "f", "raw"));
  server.set_fault_injector(nullptr);

  const auto doc = obs::parse_json(net::fetch_stats(server.port(), "json"));
  EXPECT_EQ(doc.number_or("faults_injected", -1), 2.0);
  EXPECT_GE(doc.number_or("errors_total", 0), 2.0);
  EXPECT_GE(doc.number_or("connections_total", 0), 3.0);
  server.stop();
}

// ------------------------------------------------------ CLI surface

class StatsCliTest : public TelemetryProxyTest {
 protected:
  int run_cli(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return cli::run(args, out_, err_);
  }
  std::ostringstream out_, err_;
};

TEST_F(StatsCliTest, StatsCommandRendersAndWritesOut) {
  net::ProxyServer server(store_with("f", 50000),
                          compress::SelectivePolicy::always());
  net::download(server.port(), "f", "full");
  const std::string port = std::to_string(server.port());

  ASSERT_EQ(run_cli({"stats", "--port", port}), 0) << err_.str();
  EXPECT_NE(out_.str().find("requests_total"), std::string::npos);

  ASSERT_EQ(run_cli({"stats", "--port", port, "--prom"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("# TYPE ecomp_requests_total"),
            std::string::npos);

  const std::string snap = (dir_ / "snap.json").string();
  ASSERT_EQ(run_cli({"stats", "--port", port, "--json", "--out", snap}), 0)
      << err_.str();
  const auto doc = obs::parse_json(out_.str());
  EXPECT_GE(doc.number_or("requests_total", 0), 1.0);
  // --out mirrors the last snapshot to disk.
  const Bytes raw = cli::read_file(snap);
  const auto filed = obs::parse_json(std::string(raw.begin(), raw.end()));
  EXPECT_GE(filed.number_or("requests_total", 0), 1.0);

  // --watch --count polls N times.
  ASSERT_EQ(run_cli({"stats", "--port", port, "--json", "--watch",
                     "--count", "2", "--interval-ms", "10"}),
            0)
      << err_.str();
  const std::string watched = out_.str();
  EXPECT_EQ(std::count(watched.begin(), watched.end(), '\n'), 2);
  server.stop();
}

TEST_F(StatsCliTest, StatsErrorsAreExitTwo) {
  EXPECT_EQ(run_cli({"stats"}), 2);  // no --port
  EXPECT_NE(err_.str().find("stats needs --port"), std::string::npos);
  EXPECT_EQ(run_cli({"stats", "--port", "1", "--json", "--prom"}), 2);
}

TEST_F(StatsCliTest, UnwritableTelemetryPathsAreExitTwo) {
  const std::string bad = (dir_ / "nope" / "deep" / "x.jsonl").string();
  EXPECT_EQ(run_cli({"stats", "--port", "1", "--events", bad}), 2);
  EXPECT_NE(err_.str().find("cannot open for writing"), std::string::npos);
  EXPECT_EQ(run_cli({"stats", "--port", "1", "--out", bad}), 2);
  EXPECT_EQ(run_cli({"energy", "--json", "--metrics", bad, "ignored"}), 2);
}

TEST_F(StatsCliTest, EnergyJsonStillWellFormedViaSharedWriter) {
  const std::string in = (dir_ / "in.bin").string();
  cli::write_file(in, workload::generate_kind(workload::FileKind::Log,
                                              120000, 3, 0.3));
  ASSERT_EQ(run_cli({"energy", "--json", in}), 0) << err_.str();
  const auto doc = obs::parse_json(out_.str());
  EXPECT_TRUE(doc.find("scenario") != nullptr);
  EXPECT_GT(doc.number_or("raw_energy_j", 0), 0.0);
  ASSERT_NE(doc.find("ledger"), nullptr);
}

TEST_F(StatsCliTest, DownloadPrintsTraceAndLogsEvents) {
  net::ProxyServer server(store_with("f", 70000),
                          compress::SelectivePolicy::always());
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_);
  server.set_event_log(&proxy_log);
  obs::EventLog::global().close();  // the CLI owns the client log here

  const std::string dest = (dir_ / "dl.bin").string();
  const std::string cli_log = (dir_ / "cli.jsonl").string();
  ASSERT_EQ(run_cli({"download", "--port", std::to_string(server.port()),
                     "-m", "full", "--events", cli_log, "f", dest}),
            0)
      << err_.str();
  EXPECT_EQ(cli::read_file(dest), data_);
  const std::string text = out_.str();
  const auto pos = text.find("trace: ");
  ASSERT_NE(pos, std::string::npos) << text;
  const std::string hex = text.substr(pos + 7, 16);
  EXPECT_TRUE(obs::TraceContext::from_hex(hex).valid()) << hex;
  server.stop();
  EXPECT_TRUE(trace_ids(read_jsonl(cli_log)).count(hex));
  EXPECT_TRUE(trace_ids(read_jsonl(proxy_log_)).count(hex));
}

// ------------------------------------------------------ acceptance

TEST_F(TelemetryProxyTest, FiftyRequestLoadQuantilesMatchGroundTruth) {
  // 50 fault-injected requests with per-request injected delays chosen
  // to dominate loopback noise; `ecomp stats --json` must report
  // request-latency quantiles within the histogram's bucket error of
  // ground-truth per-request timings, and every request's trace id
  // must appear in both event logs.
  net::ProxyServer server(store_with("f", 100000),
                          compress::SelectivePolicy::always());
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_);
  server.set_event_log(&proxy_log);

  constexpr int kRequests = 50;
  std::vector<double> wall_us;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    net::FaultSpec spec;
    spec.kind = net::FaultKind::Delay;
    spec.at_byte = 5000;
    spec.delay_ms = static_cast<std::uint32_t>(20 + 2 * i);  // 20..118 ms
    server.set_fault_injector(std::make_shared<net::FaultInjector>(spec, 1));
    const auto t0 = std::chrono::steady_clock::now();
    net::DownloadStats stats;
    const Bytes got = net::download(server.port(), "f", "raw", &stats);
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_EQ(got, data_);
    ASSERT_NE(stats.trace_id, 0u);
    ids.push_back(stats.trace_id);
    wall_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  server.set_fault_injector(nullptr);

  // Live snapshot through the real CLI against the running proxy.
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"stats", "--json", "--port",
                      std::to_string(server.port())},
                     out, err),
            0)
      << err.str();
  const auto doc = obs::parse_json(out.str());
  const auto* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* req = hists->find("net.proxy.request_us");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->number_or("count", 0), static_cast<double>(kRequests));

  // Quantiles within bucket error of ground truth (client wall times
  // run a hair over the proxy's own; the absolute slack covers that
  // transport overhead plus scheduler noise).
  for (const auto& [key, q] :
       std::vector<std::pair<std::string, double>>{{"p50", 0.5},
                                                   {"p90", 0.9},
                                                   {"p99", 0.99}}) {
    const double est = req->number_or(key, -1.0);
    const double truth = true_quantile(wall_us, q);
    EXPECT_NEAR(est, truth,
                truth * SlidingHistogram::kMaxRelativeError + 20000.0)
        << key;
  }

  server.stop();
  const auto client_ids = trace_ids(read_jsonl(client_log_));
  const auto proxy_ids = trace_ids(read_jsonl(proxy_log_));
  for (const std::uint64_t id : ids) {
    obs::TraceContext ctx;
    ctx.trace_id = id;
    ASSERT_TRUE(client_ids.count(ctx.hex())) << ctx.hex();
    ASSERT_TRUE(proxy_ids.count(ctx.hex())) << ctx.hex();
  }
}

// ------------------------------------------------------ renderers

TEST(StatsExport, RenderersCoverAllFields) {
  obs::StatsSnapshot s;
  s.uptime_s = 12.5;
  s.connections_total = 7;
  s.requests_total = 6;
  s.errors_total = 1;
  s.bytes_sent = 1000;
  s.energy_served_j = 0.25;
  s.counters.push_back({"net.sends", 42});
  obs::HistStat h;
  h.name = "net.proxy.request_us";
  h.snap.total_count = 6;
  h.snap.p50 = 100.0;
  h.snap.p99 = 900.0;
  s.histograms.push_back(h);

  const auto doc = obs::parse_json(obs::stats_to_json(s));
  EXPECT_EQ(doc.number_or("connections_total", 0), 7.0);
  EXPECT_EQ(doc.find("counters")->number_or("net.sends", 0), 42.0);

  const std::string text = obs::stats_to_text(s);
  EXPECT_NE(text.find("uptime_s"), std::string::npos);
  EXPECT_NE(text.find("counter net.sends 42"), std::string::npos);

  const std::string prom = obs::stats_to_prometheus(s);
  EXPECT_NE(prom.find("ecomp_net_sends 42"), std::string::npos);
  EXPECT_NE(prom.find("ecomp_net_proxy_request_us{quantile=\"0.5\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("ecomp_net_proxy_request_us_count 6"),
            std::string::npos);

  EXPECT_EQ(obs::parse_stats_format("json"), obs::StatsFormat::Json);
  EXPECT_EQ(obs::parse_stats_format("prom"), obs::StatsFormat::Prometheus);
  EXPECT_EQ(obs::parse_stats_format("anything"), obs::StatsFormat::Text);
}

// ------------------------------------------- Prometheus exposition

/// promtool-style structural validation of a text exposition: every
/// family has exactly one # HELP and one # TYPE (before its samples),
/// sample names are legal and belong to the family that announced
/// them (summaries also own _count/_sum), and every value parses.
void validate_prometheus(const std::string& text) {
  const auto name_ok = [](const std::string& n) {
    if (n.empty()) return false;
    const auto head = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
             c == '_' || c == ':';
    };
    if (!head(n[0])) return false;
    for (const char c : n)
      if (!head(c) && !(c >= '0' && c <= '9')) return false;
    return true;
  };
  std::map<std::string, int> help_count, type_count;
  std::set<std::string> families_with_samples;
  std::string current;  // family most recently announced
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_type = line[2] == 'T';
      std::istringstream meta(line.substr(7));
      std::string family, rest;
      meta >> family >> rest;
      EXPECT_TRUE(name_ok(family)) << line;
      EXPECT_FALSE(rest.empty()) << "metadata without text: " << line;
      if (is_type) {
        EXPECT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "summary" || rest == "histogram" ||
                    rest == "untyped")
            << line;
        EXPECT_EQ(++type_count[family], 1) << "duplicate TYPE " << family;
      } else {
        EXPECT_EQ(++help_count[family], 1) << "duplicate HELP " << family;
      }
      EXPECT_FALSE(families_with_samples.count(family))
          << "metadata after samples: " << family;
      current = family;
      continue;
    }
    // Sample line: name[{labels}] value
    const std::size_t cut = line.find_first_of("{ ");
    ASSERT_NE(cut, std::string::npos) << line;
    const std::string name = line.substr(0, cut);
    EXPECT_TRUE(name_ok(name)) << line;
    EXPECT_TRUE(name == current || name == current + "_count" ||
                name == current + "_sum")
        << "sample " << name << " outside family " << current;
    families_with_samples.insert(current);
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::size_t parsed = 0;
    const double v = std::stod(line.substr(sp + 1), &parsed);
    EXPECT_EQ(parsed, line.size() - sp - 1) << line;
    (void)v;
    ++samples;
  }
  EXPECT_GT(samples, 0);
  // Families announce both metadata lines or neither.
  for (const auto& [family, n] : help_count)
    EXPECT_EQ(type_count[family], n) << family << " missing TYPE";
  for (const auto& [family, n] : type_count)
    EXPECT_EQ(help_count[family], n) << family << " missing HELP";
}

/// A fully-populated snapshot with adversarial names: a registry
/// counter and a histogram that both sanitize into already-claimed
/// family names (must be dropped, not duplicated), and a build type
/// whose label value needs escaping.
obs::StatsSnapshot prom_snapshot() {
  obs::StatsSnapshot s;
  // Pinned provenance: the golden file must not depend on the machine
  // or commit that happens to run the test.
  s.provenance.git_sha = "deadbeefcafe";
  s.provenance.build_type = "odd \"name\"\\";
  s.provenance.hostname = "testhost";
  s.provenance.obs_enabled = true;
  s.uptime_s = 12.5;
  s.connections_active = 1;
  s.connections_total = 7;
  s.requests_total = 6;
  s.errors_total = 1;
  s.faults_injected = 2;
  s.bytes_sent = 4096;
  s.bytes_recv = 512;
  s.energy_served_j = 0.25;
  s.counters.push_back({"net.round_trips", 6});
  s.counters.push_back({"requests.total", 999});  // collides: dropped
  obs::HistStat h;
  h.name = "net.proxy.request_us";
  h.snap.window_count = 6;
  h.snap.rate_per_s = 0.5;
  h.snap.p50 = 100.0;
  h.snap.p90 = 400.0;
  h.snap.p99 = 900.0;
  h.snap.p999 = 950.0;
  h.snap.total_count = 6;
  h.snap.total_sum = 2100.0;
  h.snap.from_window = true;
  s.histograms.push_back(h);
  obs::HistStat clash = h;
  clash.name = "net/proxy/request-us";  // sanitizes into the same family
  s.histograms.push_back(clash);
  s.prof.present = true;
  s.prof.rss_peak_kb = 20480;
  s.prof.samples_lifetime = 1234;
  s.prof.sampler_active = false;
  s.prof.flight_recorded = 42;
  return s;
}

TEST(StatsExport, PrometheusExpositionValidates) {
  const std::string prom = obs::stats_to_prometheus(prom_snapshot());
  validate_prometheus(prom);
  // Sanitized-name collisions dropped the later claimants entirely.
  EXPECT_EQ(prom.find("ecomp_requests_total 999"), std::string::npos);
  EXPECT_NE(prom.find("ecomp_requests_total 6"), std::string::npos);
  // The PROF section rides along; label values are escaped.
  EXPECT_NE(prom.find("ecomp_prof_rss_peak_kb 20480"), std::string::npos);
  EXPECT_NE(prom.find("build_type=\"odd \\\"name\\\"\\\\\""),
            std::string::npos);
}

TEST(StatsExport, PrometheusGoldenFile) {
  const std::string prom = obs::stats_to_prometheus(prom_snapshot());
  const fs::path golden = fs::path(ECOMP_TEST_DATA_DIR) / "stats.prom";
  if (std::getenv("ECOMP_REGEN_GOLDEN")) {
    std::ofstream out(golden, std::ios::binary);
    out << prom;
    ASSERT_TRUE(out.good()) << golden;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << golden << " missing; run with ECOMP_REGEN_GOLDEN=1 to create";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(prom, want.str())
      << "rendering drifted from the committed golden; if intentional, "
         "regenerate with ECOMP_REGEN_GOLDEN=1 and commit the diff";
}

TEST(StatsExport, LiveProxyPrometheusValidates) {
  net::FileStore store;
  store.put("f", workload::generate_kind(workload::FileKind::Xml, 60000,
                                         /*seed=*/7, 0.3));
  net::ProxyServer server(store, compress::SelectivePolicy::always());
  for (int i = 0; i < 2; ++i) net::download(server.port(), "f", "raw");
  const std::string prom = net::fetch_stats(server.port(), "prom");
  server.stop();
  validate_prometheus(prom);
  EXPECT_NE(prom.find("# TYPE ecomp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE ecomp_net_proxy_request_us summary"),
            std::string::npos);
}

TEST(JsonWriter, NestedStructuresAndEscapes) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("s").value(std::string_view("a\"b\n"));
  w.key("n").value(3.5);
  w.key("arr").begin_array().value(1).value(true).end_array();
  w.key("o").begin_object().key("k").value(std::uint64_t{9}).end_object();
  w.end_object();
  const auto doc = obs::parse_json(w.str());
  EXPECT_EQ(doc.find("s")->string, "a\"b\n");
  EXPECT_EQ(doc.number_or("n", 0), 3.5);
  EXPECT_EQ(doc.find("arr")->array.size(), 2u);
  EXPECT_EQ(doc.find("o")->number_or("k", 0), 9.0);
}

}  // namespace
}  // namespace ecomp
