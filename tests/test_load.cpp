// The worker-pool proxy under real concurrency: admission control
// (BUSY shedding with a retry-after the client honors), the graceful
// degradation ladder (cheaper codec level, then no compression, before
// refusing work), graceful drain on stop(), and the headline survival
// test — 100 concurrent clients with faults firing on a subset, zero
// server crashes, every client's bytes verified. `ctest -L load` runs
// this binary; scripts/check.sh also runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "compress/selective.h"
#include "core/planner.h"
#include "net/fault.h"
#include "net/proxy.h"
#include "net/socket.h"
#include "workload/generator.h"

namespace ecomp::net {
namespace {

using workload::FileKind;

TransferPolicy fast_policy(int max_retries) {
  TransferPolicy tp;
  tp.max_retries = max_retries;
  tp.timeout_ms = 5000;
  tp.backoff_base_ms = 1;
  tp.backoff_max_ms = 50;
  return tp;
}

Bytes test_data(std::size_t n = 200000) {
  return workload::generate_kind(FileKind::Xml, n, 7, 0.4);
}

std::unique_ptr<ProxyServer> make_server(const Bytes& data,
                                         ProxyOptions opt) {
  FileStore store;
  store.put("f.xml", data);
  return std::make_unique<ProxyServer>(
      std::move(store),
      core::make_selective_policy(core::EnergyModel::paper_11mbps()),
      opt);
}

/// Open a connection and send nothing: it is admitted at accept time
/// and its worker blocks waiting for the request frame, so it occupies
/// admission capacity until the socket closes (the protocol is one
/// request per connection, so a completed request would release the
/// slot immediately).
Socket hold_slot(std::uint16_t port) {
  return connect_local(port);
}

/// Wait (bounded) until the proxy's admission depth is exactly `n`:
/// the accept thread admits asynchronously after connect returns, and
/// a finished download's server side lingers a moment after the client
/// has its bytes.
void await_depth(ProxyServer& server, std::uint64_t n) {
  for (int i = 0; i < 200; ++i) {
    if (server.stats().admission.depth == n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "admission depth never settled at " << n;
}

// --- the headline: 100 clients, faults on a subset, zero crashes ------

TEST(ProxyLoad, HundredClientsWithFaultsZeroCrashes) {
  const Bytes data = test_data();
  ProxyOptions opt;
  opt.workers = 8;
  opt.max_conns = 64;
  opt.busy_retry_ms = 5;
  // Warm the level-9 containers at startup so the stampede measures
  // admission behavior, not one cold compression.
  opt.precompress = true;
  auto server = make_server(data, opt);

  // Fault five of the first hundred connections ("fault connection 10
  // of 100"): whoever draws those indices recovers through retries.
  FaultSpec spec;
  spec.kind = FaultKind::Truncate;
  spec.at_byte = 5000;
  server->set_fault_injector(std::make_shared<FaultInjector>(
      spec, std::set<std::uint64_t>{10, 30, 50, 70, 90}));

  constexpr int kClients = 100;
  std::vector<DownloadOutcome> outcomes(kClients);
  std::vector<std::string> errors(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      const char* mode = (i % 3 == 0) ? "full" : "selective";
      try {
        outcomes[i] =
            download_resilient(server->port(), "f.xml", mode,
                               fast_policy(40));
      } catch (const std::exception& e) {
        errors[i] = e.what();
        failures.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kClients; ++i)
    EXPECT_TRUE(errors[i].empty()) << "client " << i << ": " << errors[i];
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(outcomes[i].data, data) << "client " << i;
    EXPECT_TRUE(outcomes[i].complete) << "client " << i;
  }

  // The server survived the stampede and still answers; the counters
  // are coherent (every admitted connection finished).
  const obs::StatsSnapshot s = server->stats();
  EXPECT_TRUE(s.admission.present);
  // Clients are gone; at most a few server workers may still be
  // noticing EOFs, but nothing exceeds capacity.
  EXPECT_LE(s.admission.depth, opt.max_conns);
  EXPECT_GE(s.connections_total, static_cast<std::uint64_t>(kClients));
  server->stop();
}

// --- admission: over capacity means BUSY, not a hang ------------------

TEST(ProxyLoad, SaturatedProxyRefusesWithBusy) {
  const Bytes data = test_data(20000);
  ProxyOptions opt;
  opt.workers = 1;
  opt.max_conns = 1;
  opt.busy_retry_ms = 7;  // every BUSY wait is at least this long
  auto server = make_server(data, opt);

  Socket held = hold_slot(server->port());
  await_depth(*server, 1);

  // Plain (non-resilient) client: the refusal surfaces as a typed
  // error carrying the BUSY status, immediately — no hang.
  try {
    (void)download(server->port(), "f.xml", "raw");
    FAIL() << "expected BUSY refusal";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("BUSY 7"), std::string::npos)
        << e.what();
  }

  // Resilient client: counts the BUSY, honors the retry-after, and
  // succeeds once the held connection releases capacity.
  std::thread releaser([&held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    held.close();
  });
  const auto outcome =
      download_resilient(server->port(), "f.xml", "raw", fast_policy(40));
  releaser.join();
  EXPECT_EQ(outcome.data, data);
  EXPECT_GE(outcome.busy, 1);

  const obs::StatsSnapshot s = server->stats();
  EXPECT_TRUE(s.admission.present);
  EXPECT_GE(s.admission.busy_total, 2u);
  server->stop();
}

// --- the degradation ladder -------------------------------------------

TEST(ProxyLoad, LoadWatermarksDegradeBeforeShedding) {
  const Bytes data = test_data();
  ProxyOptions opt;
  opt.workers = 4;
  opt.max_conns = 4;
  opt.degrade_level_watermark = 0.5;   // load >= 2/4 admitted
  opt.degrade_raw_watermark = 0.75;    // load >= 3/4 admitted
  auto server = make_server(data, opt);

  // Baseline (inflight 0 -> load 1/4): served at full level.
  const Bytes clean = download(server->port(), "f.xml", "selective");
  EXPECT_EQ(clean, data);
  {
    const obs::StatsSnapshot s = server->stats();
    EXPECT_EQ(s.admission.degraded_level_total, 0u);
    EXPECT_EQ(s.admission.degraded_raw_total, 0u);
  }

  // One connection held (inflight 1 -> load 2/4): level rung. The
  // await lets the baseline's server side finish so the next admission
  // decision sees exactly the held connection.
  await_depth(*server, 0);
  Socket h1 = hold_slot(server->port());
  await_depth(*server, 1);
  const Bytes level = download(server->port(), "f.xml", "selective");
  EXPECT_EQ(level, data);  // decoded bytes identical, wire cheaper

  // Two held (inflight 2 -> load 3/4): raw rung, compression skipped.
  await_depth(*server, 1);
  Socket h2 = hold_slot(server->port());
  await_depth(*server, 2);
  const Bytes raw = download(server->port(), "f.xml", "selective");
  EXPECT_EQ(raw, data);
  // full mode has no stored rung: at the raw watermark it is served at
  // level 1 and counted on the level rung.
  await_depth(*server, 2);
  const Bytes rawfull = download(server->port(), "f.xml", "full");
  EXPECT_EQ(rawfull, data);

  h1.close();
  h2.close();
  const obs::StatsSnapshot s = server->stats();
  EXPECT_GE(s.admission.degraded_level_total, 2u);
  EXPECT_GE(s.admission.degraded_raw_total, 1u);
  server->stop();
}

TEST(ProxyLoad, ResumingDownloadsAreNeverDegraded) {
  // One held slot of four is the level rung. A resuming download asks
  // with GET-RANGE, which the ladder never degrades, so a resume cannot
  // splice a level-1 prefix onto a level-9 tail; a restarting one asks
  // with GET, which the ladder may serve cheaper. Both decode exactly.
  const Bytes data = test_data();
  ProxyOptions opt;
  opt.workers = 4;
  opt.max_conns = 4;
  auto server = make_server(data, opt);
  Socket held = hold_slot(server->port());
  await_depth(*server, 1);

  auto tp = fast_policy(0);
  tp.resume = true;
  const auto ranged =
      download_resilient(server->port(), "f.xml", "selective", tp);
  EXPECT_EQ(ranged.data, data);
  EXPECT_EQ(server->stats().admission.degraded_level_total, 0u);

  await_depth(*server, 1);
  tp.resume = false;
  const auto plain =
      download_resilient(server->port(), "f.xml", "selective", tp);
  EXPECT_EQ(plain.data, data);
  EXPECT_EQ(server->stats().admission.degraded_level_total, 1u);
  // The level-1 container is the larger one on the wire.
  EXPECT_GT(plain.stats.bytes_on_wire, ranged.stats.bytes_on_wire);
  held.close();
  server->stop();
}

// --- a PUT landing during an on-demand build --------------------------

TEST(ProxyLoad, PutDuringBuildNeverCachesTheOldContainer) {
  // A GET that began building before a PUT must not leave the old
  // container cached after `OK stored`: a GET started while that build
  // may still run and a GET after it has finished both get the new
  // bytes, in full and in selective mode.
  const Bytes old_data = test_data(1500000);
  const Bytes new_data = workload::generate_kind(FileKind::Log, 5000, 3, 0.0);
  FileStore store;
  store.put("full.xml", old_data);
  store.put("selective.xml", old_data);
  ProxyOptions opt;
  opt.workers = 4;
  ProxyServer server(std::move(store), compress::SelectivePolicy::always(),
                     opt);
  for (const std::string mode : {"full", "selective"}) {
    SCOPED_TRACE(mode);
    const std::string name = mode + ".xml";
    const std::uint64_t misses = server.cache_stats().misses;
    Bytes first;
    std::thread building(
        [&] { first = download(server.port(), name, mode); });
    for (int i = 0; i < 5000 && server.cache_stats().misses == misses; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.cache_stats().misses, misses + 1);
    upload(server.port(), name, new_data,
           compress::SelectivePolicy::always());
    const Bytes during = download(server.port(), name, mode);
    building.join();
    // The first GET began before the PUT: either version is its own.
    EXPECT_TRUE(first == old_data || first == new_data);
    EXPECT_EQ(during, new_data);
    EXPECT_EQ(download(server.port(), name, mode), new_data);
  }
}

// --- graceful drain ----------------------------------------------------

TEST(ProxyLoad, StopDrainsInFlightDownloads) {
  const Bytes data = test_data();
  ProxyOptions opt;
  opt.workers = 2;
  opt.drain_deadline_ms = 5000;
  auto server = make_server(data, opt);

  // Stall the victim connection mid-payload so stop() overlaps it.
  FaultSpec spec;
  spec.kind = FaultKind::Delay;
  spec.at_byte = 5000;
  spec.delay_ms = 300;
  server->set_fault_injector(std::make_shared<FaultInjector>(spec, 1));

  DownloadOutcome outcome;
  std::thread client([&] {
    outcome = download_resilient(server->port(), "f.xml", "full",
                                 fast_policy(4));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->stop();  // must wait for the stalled transfer, not break it
  client.join();
  EXPECT_EQ(outcome.data, data);
  EXPECT_EQ(outcome.attempts, 1);
}

TEST(ProxyLoad, DrainDeadlineBreaksIdleConnections) {
  const Bytes data = test_data(20000);
  ProxyOptions opt;
  opt.workers = 1;
  opt.drain_deadline_ms = 100;
  auto server = make_server(data, opt);

  // An idle-but-admitted connection would hold the drain forever; the
  // deadline breaks its socket instead.
  Socket held = hold_slot(server->port());
  await_depth(*server, 1);
  const auto t0 = std::chrono::steady_clock::now();
  server->stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace ecomp::net
