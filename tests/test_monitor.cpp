// Monitoring suite: the fixed-memory time-series store, the rule-driven
// watchdog (energy/latency SLOs, drift, stalls), the proxy's embedded
// sampler, and the `ecomp monitor` / `ecomp top` / `ecomp stats --watch`
// CLI surface.
//
// The headline acceptance pair: a fault-injected proxy run whose
// measured J/MB-served crosses the Eq. 6-derived SLO line must produce
// alert records in the JSONL event log, the flight recorder, and the
// STATS ALERTS section — and `ecomp monitor` must exit 4 — while the
// same workload on a clean channel produces zero alerts and exit 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
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
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/rules.h"
#include "obs/series.h"
#include "prof/flight.h"
#include "workload/generator.h"

namespace ecomp {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------ sample rings

TEST(SampleRing, WrapTotalsAndOrdinals) {
  obs::SampleRing ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 6; ++i)
    ring.push({static_cast<double>(i), static_cast<double>(10 * i)});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 6u);
  // Oldest retained sample is push #2; newest is push #5.
  EXPECT_DOUBLE_EQ(ring.from_oldest(0).v, 20.0);
  EXPECT_DOUBLE_EQ(ring.from_latest(0).v, 50.0);
  EXPECT_DOUBLE_EQ(ring.at_ordinal(4).v, 40.0);
  EXPECT_DOUBLE_EQ(ring.at_ordinal(ring.total() - 1).t_s, 5.0);
}

TEST(Series, TierDownsamplingWithInjectedTime) {
  obs::SeriesOptions so;  // tier1 = 10 s averages, tier2 = 60 s averages
  obs::Series s(so);
  for (int t = 0; t < 100; ++t)
    s.append(static_cast<double>(t), static_cast<double>(t));

  EXPECT_EQ(s.tier(0).size(), 100u);
  EXPECT_DOUBLE_EQ(s.last().v, 99.0);

  // A 10 s bucket is flushed when the first sample of the next decade
  // arrives: buckets [0,10) .. [80,90) are out, [90,100) still open.
  ASSERT_EQ(s.tier(1).size(), 9u);
  EXPECT_DOUBLE_EQ(s.tier(1).from_oldest(0).t_s, 0.0);
  EXPECT_DOUBLE_EQ(s.tier(1).from_oldest(0).v, 4.5);  // mean of 0..9
  EXPECT_DOUBLE_EQ(s.tier(1).from_latest(0).v, 84.5);

  ASSERT_EQ(s.tier(2).size(), 1u);
  EXPECT_DOUBLE_EQ(s.tier(2).from_oldest(0).v, 29.5);  // mean of 0..59
}

TEST(SeriesStore, ToJsonShapeAndPerTierLimit) {
  obs::SeriesStore store;
  for (int t = 0; t < 50; ++t)
    store.append("a.metric", static_cast<double>(t), 2.0 * t);
  store.append("b.metric", 0.0, 7.0);

  const auto doc = obs::parse_json(store.to_json(/*now_s=*/49.0,
                                                 /*max_per_tier=*/8));
  EXPECT_EQ(doc.number_or("now_s", -1), 49.0);
  const auto* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  const auto* a = series->find("a.metric");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->number_or("last", -1), 98.0);
  const auto* tiers = a->find("tiers");
  ASSERT_NE(tiers, nullptr);
  ASSERT_TRUE(tiers->is_array());
  ASSERT_EQ(tiers->array.size(), 3u);
  const auto* samples = tiers->array[0].find("samples");
  ASSERT_NE(samples, nullptr);
  // Only the newest max_per_tier samples are emitted, newest last.
  ASSERT_EQ(samples->array.size(), 8u);
  EXPECT_DOUBLE_EQ(samples->array.back().array[1].number, 98.0);
  EXPECT_DOUBLE_EQ(samples->array.front().array[1].number, 84.0);
  ASSERT_NE(series->find("b.metric"), nullptr);
}

// ------------------------------------------------ scratch histograms

TEST(SlidingHistogramScratch, MatchesAllocatingSnapshot) {
  obs::SlidingHistogram h;
  for (std::uint64_t v = 1; v <= 2000; ++v) h.record(v);
  std::vector<std::uint64_t> scratch(obs::SlidingHistogram::kBuckets);

  const auto a = h.snapshot();
  const auto b = h.snapshot(scratch.data());
  EXPECT_EQ(a.window_count, b.window_count);
  EXPECT_EQ(a.total_count, b.total_count);
  EXPECT_DOUBLE_EQ(a.total_sum, b.total_sum);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p90, b.p90);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.p999, b.p999);
  EXPECT_EQ(a.from_window, b.from_window);
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_DOUBLE_EQ(h.quantile(q), h.quantile(q, scratch.data())) << q;
}

// ------------------------------------------------------ rule parsing

TEST(Rules, ParseGrammarAndSymbolicTokens) {
  const std::string text =
      "# comment line\n"
      "\n"
      "slo jmb net.proxy.j_per_mb_served above eq6 for 2\n"
      "slo lat net.proxy.request_us.p99 above 250000\n"
      "stall conn net.proxy.conn_stall_s 5 for 1\n"
      "drift dj net.proxy.j_per_mb_served z 3.5 warmup 8 alpha 0.1\n";
  const auto rules = obs::parse_rules(
      text, [](const std::string& tok) -> double {
        EXPECT_EQ(tok, "eq6");
        return 4.06;
      });
  ASSERT_EQ(rules.size(), 4u);

  EXPECT_EQ(rules[0].kind, obs::RuleKind::Slo);
  EXPECT_EQ(rules[0].name, "jmb");
  EXPECT_EQ(rules[0].series, "net.proxy.j_per_mb_served");
  EXPECT_TRUE(rules[0].above);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 4.06);
  EXPECT_EQ(rules[0].for_n, 2);

  EXPECT_DOUBLE_EQ(rules[1].threshold, 250000.0);
  EXPECT_EQ(rules[1].for_n, 3);  // slo default

  EXPECT_EQ(rules[2].kind, obs::RuleKind::Stall);
  EXPECT_DOUBLE_EQ(rules[2].threshold, 5.0);
  EXPECT_EQ(rules[2].for_n, 1);

  EXPECT_EQ(rules[3].kind, obs::RuleKind::Drift);
  EXPECT_DOUBLE_EQ(rules[3].z, 3.5);
  EXPECT_EQ(rules[3].warmup, 8);
  EXPECT_DOUBLE_EQ(rules[3].alpha, 0.1);
}

TEST(Rules, ParseErrorsCarryLineNumbers) {
  EXPECT_THROW(obs::parse_rules("bogus x y\n"), Error);
  EXPECT_THROW(obs::parse_rules("slo a b sideways 1\n"), Error);
  EXPECT_THROW(obs::parse_rules("stall a b\n"), Error);
  EXPECT_THROW(obs::parse_rules("slo a b above 1 for\n"), Error);
  EXPECT_THROW(obs::parse_rules("drift a b z nope\n"), Error);
  // Symbolic threshold without a resolver names the line.
  try {
    obs::parse_rules("# one\nslo a b above eq6\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ watchdog

TEST(Watchdog, SloFiresOncePerEpisodeAndRearms) {
  obs::SeriesStore store;
  obs::Watchdog dog;
  obs::Rule r;
  r.name = "hot";
  r.series = "x";
  r.threshold = 10.0;
  r.for_n = 2;
  dog.add_rule(r);

  double t = 0.0;
  const auto push_eval = [&](double v) {
    store.append("x", t, v);
    t += 1.0;
    std::vector<obs::Alert> fired;
    dog.evaluate(store, &fired);
    return fired.size();
  };

  EXPECT_EQ(push_eval(5.0), 0u);   // below the line
  EXPECT_EQ(push_eval(15.0), 0u);  // breach 1 of 2
  EXPECT_EQ(push_eval(15.0), 1u);  // breach 2: fires
  EXPECT_EQ(push_eval(20.0), 0u);  // still in episode: silent
  EXPECT_EQ(push_eval(1.0), 0u);   // recovery re-arms
  EXPECT_EQ(push_eval(15.0), 0u);
  EXPECT_EQ(push_eval(15.0), 1u);  // second episode fires again
  EXPECT_EQ(dog.alerts_total(), 2u);
  ASSERT_EQ(dog.recent().size(), 2u);
  EXPECT_EQ(dog.recent().back().rule, "hot");
  EXPECT_DOUBLE_EQ(dog.recent().back().value, 15.0);
  EXPECT_DOUBLE_EQ(dog.recent().back().threshold, 10.0);
  // Samples are consumed exactly once: re-evaluating with no new
  // samples never refires.
  std::vector<obs::Alert> fired;
  EXPECT_EQ(dog.evaluate(store, &fired), 0u);
}

TEST(Watchdog, DriftFiresOnRegressionNotOnStableSeries) {
  // Synthetic J/MB-served: stable around the paper's 3.53 J/MB raw
  // line, then a regression steps it to 7 J/MB. The drift rule must
  // stay silent through the stable stretch (including its small noise)
  // and fire on the step.
  const auto run = [](bool regress) {
    obs::SeriesStore store;
    obs::Watchdog dog;
    obs::Rule r;
    r.name = "jdrift";
    r.kind = obs::RuleKind::Drift;
    r.series = "j";
    r.z = 4.0;
    r.warmup = 12;
    dog.add_rule(r);
    std::size_t fired_total = 0;
    for (int i = 0; i < 40; ++i) {
      const double noise = 0.02 * ((i % 5) - 2);  // deterministic wiggle
      const double v =
          (regress && i >= 30) ? 7.0 : 3.53 + noise;
      store.append("j", static_cast<double>(i), v);
      fired_total += dog.evaluate(store, nullptr);
    }
    return fired_total;
  };
  EXPECT_EQ(run(false), 0u);
  EXPECT_GE(run(true), 1u);
}

// ------------------------------------------------------ monitor core

TEST(Monitor, RegistrySampledWithInjectedClock) {
  auto& reg = obs::Registry::global();
  reg.reset();
  auto& ctr = reg.counter("montest.ops");
  auto& gauge = reg.gauge("montest.depth");
  auto& sliding = reg.sliding("montest.lat_us");

  std::uint64_t now = 0;
  obs::Monitor m;
  m.set_clock_for_test([&now] { return now; });

  ctr.add(100);
  gauge.set(42);
  sliding.record(1000);
  m.tick();  // baseline tick: counters seen, no rate yet
  EXPECT_EQ(m.ticks(), 1u);

  now += 2'000'000'000ull;  // 2 s
  ctr.add(100);             // 50/s over the interval
  gauge.set(17);
  m.tick();

  const auto latest = m.latest();
  const auto value_of = [&](const std::string& name) -> double {
    for (const auto& [n, v] : latest)
      if (n == name) return v;
    ADD_FAILURE() << "series missing: " << name;
    return -1.0;
  };
  EXPECT_NEAR(value_of("montest.ops.rate"), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(value_of("montest.depth"), 17.0);
  EXPECT_NEAR(value_of("montest.lat_us.p50"), 1000.0,
              1000.0 * obs::SlidingHistogram::kMaxRelativeError);

  // A counter reset (registry cleared) clamps the rate to 0, not a
  // huge negative.
  now += 1'000'000'000ull;
  ctr.reset();
  m.tick();
  EXPECT_DOUBLE_EQ(value_of("montest.ops.rate"), 50.0);  // old snapshot
  const auto latest2 = m.latest();
  for (const auto& [n, v] : latest2) {
    if (n == "montest.ops.rate") {
      EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }

  // The SERIES payload covers the sampled names.
  const auto doc = obs::parse_json(m.series_json());
  const auto* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_NE(series->find("montest.depth"), nullptr);
  EXPECT_NE(series->find("montest.ops.rate"), nullptr);
  reg.reset();
}

TEST(Monitor, RulesEvaluatePerTickAndSinkReceivesAlerts) {
  obs::MonitorOptions mo;
  mo.sample_registry = false;  // only the injected source below
  obs::Monitor m(mo);
  std::uint64_t now = 0;
  m.set_clock_for_test([&now] { return now; });

  double value = 1.0;
  m.add_source([&value](double t_s, obs::SeriesStore& store) {
    store.append("src.v", t_s, value);
  });
  obs::Rule r;
  r.name = "src-high";
  r.series = "src.v";
  r.threshold = 5.0;
  r.for_n = 2;
  m.add_rule(r);
  std::vector<obs::Alert> sunk;
  m.set_alert_sink([&sunk](const obs::Alert& a) { sunk.push_back(a); });

  for (int i = 0; i < 3; ++i) {
    now += 1'000'000'000ull;
    m.tick();
  }
  EXPECT_TRUE(sunk.empty());
  value = 9.0;
  for (int i = 0; i < 3; ++i) {
    now += 1'000'000'000ull;
    m.tick();
  }
  ASSERT_EQ(sunk.size(), 1u);  // fired once per episode
  EXPECT_EQ(sunk[0].rule, "src-high");
  EXPECT_EQ(m.alerts_total(), 1u);
  ASSERT_EQ(m.recent_alerts().size(), 1u);
}

// ------------------------------------------------------ event log cap

TEST(EventLogRotation, CapsFileAndKeepsEveryLineParseable) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("ecomp_rotate_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "events.jsonl").string();

  obs::EventLog log;
  log.open(path);
  log.set_max_bytes(2048);
  EXPECT_EQ(log.max_bytes(), 2048u);
  for (int i = 0; i < 100; ++i) {
    obs::Event e;
    e.stage = "close";
    e.side = "test";
    e.conn = i;
    log.emit(e);
  }
  log.close();

  ASSERT_TRUE(fs::exists(path));
  ASSERT_TRUE(fs::exists(path + ".1"));  // rotated generation
  EXPECT_LE(fs::file_size(path), 2048u);
  EXPECT_LE(fs::file_size(path + ".1"), 2048u);

  // Both generations are line-complete JSONL, and the newest event is
  // in the live file (rotation never drops the incoming line).
  int last_conn = -1;
  for (const std::string& p : {path + ".1", path}) {
    std::ifstream in(p);
    std::string line;
    while (std::getline(in, line)) {
      const auto doc = obs::parse_json(line);
      last_conn = static_cast<int>(doc.number_or("conn", -1));
    }
  }
  EXPECT_EQ(last_conn, 99);
  fs::remove_all(dir);
}

TEST(EventLogRotation, AlertEventsCarryValueAndThreshold) {
  obs::Event e;
  e.stage = "alert";
  e.side = "proxy";
  e.name = "energy-slo";
  e.value = 6.5;
  e.threshold = 4.06;
  const auto doc = obs::parse_json(obs::event_to_json(e));
  EXPECT_DOUBLE_EQ(doc.number_or("value", -1), 6.5);
  EXPECT_DOUBLE_EQ(doc.number_or("threshold", -1), 4.06);
  // Unset numeric fields stay omitted.
  obs::Event plain;
  plain.stage = "close";
  const auto doc2 = obs::parse_json(obs::event_to_json(plain));
  EXPECT_EQ(doc2.find("value"), nullptr);
  EXPECT_EQ(doc2.find("threshold"), nullptr);
}

// ------------------------------------------------------ live proxy

class MonitorProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ecomp_monitor_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    proxy_log_path_ = (dir_ / "proxy.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  net::FileStore store_with(const std::string& name, std::size_t bytes) {
    net::FileStore store;
    data_ = workload::generate_kind(workload::FileKind::Xml, bytes,
                                    /*seed=*/7, 0.3);
    store.put(name, data_);
    return store;
  }

  /// Fast-sampling monitor config for tests (20 ms cadence).
  static net::MonitorConfig fast_monitor(double stall_timeout_s = 60.0) {
    net::MonitorConfig mc;
    mc.cadence_ms = 20;
    mc.stall_timeout_s = stall_timeout_s;
    return mc;
  }

  /// Wait until the proxy's monitor has run at least `n` more ticks.
  static void await_ticks(const net::ProxyServer& server, std::uint64_t n) {
    ASSERT_NE(server.monitor(), nullptr);
    const std::uint64_t target = server.monitor()->ticks() + n;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.monitor()->ticks() < target &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(server.monitor()->ticks(), target);
  }

  int run_cli(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return cli::run(args, out_, err_);
  }

  std::string write_rules(const std::string& text) {
    const std::string path = (dir_ / "rules.txt").string();
    cli::write_file(path, as_bytes(text));
    return path;
  }

  fs::path dir_;
  std::string proxy_log_path_;
  Bytes data_;
  std::ostringstream out_, err_;
};

constexpr const char* kEnergyRules =
    "# energy SLO: measured J/MB-served vs the Eq. 6 raw line x margin\n"
    "slo energy-slo net.proxy.j_per_mb_served above eq6*1.15 for 2\n";

TEST_F(MonitorProxyTest, CleanWorkloadProducesZeroAlerts) {
  // 50 fault-free requests: measured J/MB-served sits at (or below) the
  // raw Eq. 1 line, under the 1.15x SLO margin — nothing may fire, in
  // the proxy's own watchdog or in `ecomp monitor`.
  net::ProxyServer server(store_with("f", 100000),
                          compress::SelectivePolicy::always(),
                          compress::kDefaultBlockSize, false, 1,
                          fast_monitor());
  for (int i = 0; i < 50; ++i)
    net::download(server.port(), "f", i % 2 ? "raw" : "selective");
  await_ticks(server, 4);

  ASSERT_NE(server.monitor(), nullptr);
  EXPECT_EQ(server.monitor()->alerts_total(), 0u);
  const auto doc = obs::parse_json(net::fetch_stats(server.port(), "json"));
  const auto* mon = doc.find("monitor");
  ASSERT_NE(mon, nullptr);
  EXPECT_EQ(mon->number_or("alerts_total", -1), 0.0);
  EXPECT_GT(mon->number_or("ticks", 0), 0.0);
  // The measured gauge exists and sits under the SLO line.
  const auto* gauges = mon->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const double jmb = gauges->number_or("net.proxy.j_per_mb_served", -1.0);
  EXPECT_GT(jmb, 0.0);
  EXPECT_LT(jmb, 4.06);  // 3.531 J/MB raw line x 1.15

  // Headless watchdog over the same SLO: clean exit.
  EXPECT_EQ(run_cli({"monitor", "--port", std::to_string(server.port()),
                     "--rules", write_rules(kEnergyRules), "--count", "4",
                     "--interval-ms", "20"}),
            0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("0 alert(s)"), std::string::npos) << out_.str();
  server.stop();
}

TEST_F(MonitorProxyTest, EnergySloBreachAlertsEverywhere) {
  // Truncate faults burn wire bytes on failed connections; the measured
  // J/MB-served (download energy + waste, over useful MB) crosses the
  // Eq. 6-derived line and the alert must land in the JSONL event log,
  // the flight recorder, the STATS ALERTS section — and `ecomp monitor`
  // must exit 4.
  net::ProxyServer server(store_with("f", 200000),
                          compress::SelectivePolicy::always(),
                          compress::kDefaultBlockSize, false, 1,
                          fast_monitor());
  obs::EventLog proxy_log;
  proxy_log.open(proxy_log_path_);
  server.set_event_log(&proxy_log);
  prof::FlightRecorder::global().clear();
  prof::attach_flight_mirror();

  net::download(server.port(), "f", "raw");  // the useful MB served

  net::FaultSpec spec;
  spec.kind = net::FaultKind::Truncate;
  spec.at_byte = 40000;
  server.set_fault_injector(std::make_shared<net::FaultInjector>(spec, 6));
  for (int i = 0; i < 6; ++i)
    EXPECT_ANY_THROW(net::download(server.port(), "f", "raw"));
  server.set_fault_injector(nullptr);

  await_ticks(server, 4);  // >= 2 breaching samples at 20 ms cadence
  ASSERT_NE(server.monitor(), nullptr);
  EXPECT_GE(server.monitor()->alerts_total(), 1u);
  const auto alerts = server.monitor()->recent_alerts();
  ASSERT_FALSE(alerts.empty());
  const auto energy_alert =
      std::find_if(alerts.begin(), alerts.end(), [](const obs::Alert& a) {
        return a.rule == "energy-slo";
      });
  ASSERT_NE(energy_alert, alerts.end());
  EXPECT_GT(energy_alert->value, energy_alert->threshold);

  // STATS ALERTS section (json + text).
  const auto doc = obs::parse_json(net::fetch_stats(server.port(), "json"));
  const auto* mon = doc.find("monitor");
  ASSERT_NE(mon, nullptr);
  EXPECT_GE(mon->number_or("alerts_total", 0), 1.0);
  const auto* alist = mon->find("alerts");
  ASSERT_NE(alist, nullptr);
  bool in_stats = false;
  for (const auto& a : alist->array)
    if (a.find("rule") && a.find("rule")->string == "energy-slo")
      in_stats = true;
  EXPECT_TRUE(in_stats);
  const std::string text = net::fetch_stats(server.port(), "text");
  EXPECT_NE(text.find("ALERTS"), std::string::npos);
  EXPECT_NE(text.find("alert energy-slo"), std::string::npos);

  // Headless watchdog against the same line: breach exit code.
  EXPECT_EQ(run_cli({"monitor", "--port", std::to_string(server.port()),
                     "--rules", write_rules(kEnergyRules), "--count", "5",
                     "--interval-ms", "20"}),
            4)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("alert energy-slo"), std::string::npos)
      << out_.str();

  server.stop();
  proxy_log.close();

  // The structured alert record landed in the JSONL event log...
  bool logged = false;
  std::ifstream in(proxy_log_path_);
  std::string line;
  while (std::getline(in, line)) {
    const auto e = obs::parse_json(line);
    const auto* stage = e.find("stage");
    if (!stage || stage->string != "alert") continue;
    EXPECT_EQ(e.find("name")->string, "energy-slo");
    EXPECT_GT(e.number_or("value", -1), e.number_or("threshold", 1e9));
    logged = true;
  }
  EXPECT_TRUE(logged);
  // ...and was mirrored into the crash-safe flight recorder.
  EXPECT_NE(prof::FlightRecorder::global().dump_string().find("alert"),
            std::string::npos);
}

TEST_F(MonitorProxyTest, StallWatchdogFiresOnDelayedConnection) {
  // A Delay fault freezes an in-flight connection for 600 ms; the
  // liveness watchdog (stall timeout 150 ms, sampled every 20 ms) must
  // flag the stalled connection while the transfer itself still
  // completes.
  net::ProxyServer server(store_with("f", 120000),
                          compress::SelectivePolicy::always(),
                          compress::kDefaultBlockSize, false, 1,
                          fast_monitor(/*stall_timeout_s=*/0.15));
  net::FaultSpec spec;
  spec.kind = net::FaultKind::Delay;
  spec.at_byte = 5000;
  spec.delay_ms = 600;
  server.set_fault_injector(std::make_shared<net::FaultInjector>(spec, 1));
  const Bytes got = net::download(server.port(), "f", "raw");
  EXPECT_EQ(got, data_);
  server.set_fault_injector(nullptr);

  ASSERT_NE(server.monitor(), nullptr);
  const auto alerts = server.monitor()->recent_alerts();
  const bool stalled =
      std::any_of(alerts.begin(), alerts.end(), [](const obs::Alert& a) {
        return a.rule == "conn-stall";
      });
  EXPECT_TRUE(stalled);
  // The connection finished: the stall gauge recovered to zero.
  await_ticks(server, 2);
  const auto latest = server.monitor()->latest();
  for (const auto& [name, v] : latest) {
    if (name == "net.proxy.conn_stall_s") {
      EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }
  server.stop();
}

TEST_F(MonitorProxyTest, LatencySeriesArePerProxy) {
  // Two proxies in one process, traffic to A only: each monitor's
  // net.proxy.request_us series (what latency-slo watches) must come
  // from its own proxy's requests, not from a process-wide copy.
  net::ProxyServer a(store_with("f", 20000),
                     compress::SelectivePolicy::always(),
                     compress::kDefaultBlockSize, false, 1, fast_monitor());
  net::ProxyServer b(store_with("f", 20000),
                     compress::SelectivePolicy::always(),
                     compress::kDefaultBlockSize, false, 1, fast_monitor());
  for (int i = 0; i < 20; ++i) net::download(a.port(), "f", "raw");
  await_ticks(a, 2);
  await_ticks(b, 2);
  const auto rate = [](const net::ProxyServer& s) {
    for (const auto& [name, v] : s.monitor()->latest())
      if (name == "net.proxy.request_us.rate") return v;
    return -1.0;
  };
  EXPECT_GT(rate(a), 0.0);
  EXPECT_EQ(rate(b), 0.0);
  // Proxy counts live in the snapshot's own fields, not registry
  // counters that every proxy in the process would share.
  for (const auto& [name, v] : a.stats().counters)
    EXPECT_NE(name.rfind("net.proxy.", 0), 0u) << name;
  a.stop();
  b.stop();
}

TEST_F(MonitorProxyTest, CodecPoolsDoNotReportAsTheConnectionPool) {
  // An on-demand selective GET encodes on a 2-thread pool inside a
  // 4-worker proxy. ADMISSION reports the connection pool, and no
  // process-wide gauge lets the request's pool overwrite it.
  net::ProxyOptions opt;
  opt.workers = 4;
  opt.threads = 2;
  net::ProxyServer server(store_with("f", 600000),
                          compress::SelectivePolicy::always(), opt);
  EXPECT_EQ(net::download(server.port(), "f", "selective"), data_);
  ASSERT_NE(server.monitor(), nullptr);
  server.monitor()->tick();
  const auto doc = obs::parse_json(net::fetch_stats(server.port(), "json"));
  const auto* admission = doc.find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->number_or("workers", -1), 4.0);
  bool sampled_par = false;
  for (const auto& [name, v] : server.monitor()->latest()) {
    sampled_par = sampled_par || name.rfind("par.", 0) == 0;
    EXPECT_NE(name, "par.workers");
    EXPECT_NE(name, "par.queue_capacity");
  }
  EXPECT_TRUE(sampled_par);  // the pool's own series are still sampled
  server.stop();
}

// ------------------------------------------------------ CLI surface

TEST_F(MonitorProxyTest, StatsWatchRejectsNegativeCount) {
  net::ProxyServer server(store_with("f", 20000),
                          compress::SelectivePolicy::always());
  const std::string snap = (dir_ / "snap.json").string();
  cli::write_file(snap, as_bytes(std::string("earlier snapshot")));
  EXPECT_EQ(run_cli({"stats", "--port", std::to_string(server.port()),
                     "--watch", "--count", "-1", "--out", snap}),
            2);
  EXPECT_NE(err_.str().find("--count"), std::string::npos) << err_.str();
  EXPECT_EQ(out_.str(), "");
  EXPECT_EQ(ecomp::to_string(cli::read_file(snap)), "earlier snapshot");
  EXPECT_EQ(server.stats().requests_total, 0u);  // nothing was fetched
  server.stop();
}

TEST_F(MonitorProxyTest, TopRejectsNegativeCount) {
  net::ProxyServer server(store_with("f", 20000),
                          compress::SelectivePolicy::always());
  EXPECT_EQ(run_cli({"top", "--port", std::to_string(server.port()),
                     "--count", "-3"}),
            2);
  EXPECT_NE(err_.str().find("--count"), std::string::npos) << err_.str();
  EXPECT_EQ(out_.str(), "");
  EXPECT_EQ(server.stats().requests_total, 0u);
  server.stop();
}

TEST_F(MonitorProxyTest, MonitorRejectsNegativeCount) {
  net::ProxyServer server(store_with("f", 20000),
                          compress::SelectivePolicy::always());
  EXPECT_EQ(run_cli({"monitor", "--port", std::to_string(server.port()),
                     "--rules", write_rules(kEnergyRules), "--count", "-1"}),
            2);
  EXPECT_NE(err_.str().find("--count"), std::string::npos) << err_.str();
  EXPECT_EQ(out_.str(), "");
  EXPECT_EQ(server.stats().requests_total, 0u);
  server.stop();
}

TEST_F(MonitorProxyTest, SeriesStatsPayloadAndTopRender) {
  net::ProxyServer server(store_with("f", 60000),
                          compress::SelectivePolicy::always(),
                          compress::kDefaultBlockSize, false, 1,
                          fast_monitor());
  net::download(server.port(), "f", "raw");
  await_ticks(server, 3);

  // SERIES payload: fixed-memory store over the wire.
  const auto doc = obs::parse_json(net::fetch_stats(server.port(), "series"));
  EXPECT_EQ(doc.number_or("schema", -1), 1.0);
  const auto* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->object.empty());
  EXPECT_NE(series->find("net.proxy.conns_active"), nullptr);

  // `ecomp top` renders a one-frame dashboard over it.
  ASSERT_EQ(run_cli({"top", "--port", std::to_string(server.port()),
                     "--count", "1"}),
            0)
      << err_.str();
  const std::string frame = out_.str();
  EXPECT_NE(frame.find("ecomp top"), std::string::npos);
  EXPECT_NE(frame.find("net.proxy.conns_active"), std::string::npos);
  EXPECT_NE(frame.find("▁"), std::string::npos);  // sparkline block
  EXPECT_NE(frame.find("no alerts"), std::string::npos);
  server.stop();
}

TEST_F(MonitorProxyTest, StatsWatchPrintsDeltasNotTotals) {
  net::ProxyServer server(store_with("f", 50000),
                          compress::SelectivePolicy::always(),
                          compress::kDefaultBlockSize, false, 1,
                          fast_monitor());
  net::download(server.port(), "f", "raw");

  // A request lands between the baseline tick and the second tick; the
  // watch output must report it as a delta, not repeat raw totals.
  std::thread mid([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    net::download(server.port(), "f", "raw");
  });
  const int rc = run_cli({"stats", "--port", std::to_string(server.port()),
                          "--watch", "--count", "2", "--interval-ms",
                          "400"});
  mid.join();
  ASSERT_EQ(rc, 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("baseline:"), std::string::npos) << text;
  // +2: the mid-tick download plus the watch's own STATS poll.
  EXPECT_NE(text.find("requests_total +2"), std::string::npos) << text;
  EXPECT_NE(text.find("/s)"), std::string::npos) << text;
  // Raw totals do not repeat (the baseline count never reappears).
  EXPECT_EQ(text.find("requests_total  "), std::string::npos) << text;
  server.stop();
}

TEST_F(MonitorProxyTest, MonitorCliErrorsAreExitTwo) {
  EXPECT_EQ(run_cli({"monitor", "--port", "1"}), 2);  // no --rules
  EXPECT_NE(err_.str().find("--rules"), std::string::npos);
  EXPECT_EQ(run_cli({"monitor", "--rules", "x"}), 2);  // no --port
  // Unknown symbolic token in the rule file.
  net::ProxyServer server(store_with("f", 20000),
                          compress::SelectivePolicy::always());
  const std::string bad =
      write_rules("slo a net.proxy.j_per_mb_served above eq7\n");
  EXPECT_EQ(run_cli({"monitor", "--port", std::to_string(server.port()),
                     "--rules", bad, "--count", "1"}),
            2);
  EXPECT_NE(err_.str().find("eq7"), std::string::npos) << err_.str();
  server.stop();
}

}  // namespace
}  // namespace ecomp
