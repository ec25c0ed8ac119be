// The observability layer: metrics registry semantics, concurrent
// recording, trace JSON well-formedness, and the disabled-build no-ops.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ecomp::obs {
namespace {

// ------------------------------------------------------------- mini JSON
// A strict structural validator (not a full parser): enough to prove the
// exporters emit grammatically valid JSON, including escaping.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(const std::string& s) { return JsonChecker(s).valid(); }

TEST(ObsJson, CheckerSanity) {
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3e4],"b":"x\n\"y"})"));
  EXPECT_FALSE(is_valid_json(R"({"a":1)"));
  EXPECT_FALSE(is_valid_json("{'a':1}"));
  EXPECT_FALSE(is_valid_json("{\"a\":\"\x01\"}"));  // raw control char
}

TEST(ObsJson, QuoteEscapes) {
  EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_TRUE(is_valid_json(json_quote(std::string("\x01\x1f tab\t"))));
}

TEST(ObsJson, NumberIsAlwaysValid) {
  EXPECT_TRUE(is_valid_json(json_number(1.5)));
  EXPECT_TRUE(is_valid_json(json_number(-0.0)));
  // Non-finite values must not leak "inf"/"nan" tokens into the JSON.
  EXPECT_TRUE(is_valid_json(json_number(1.0 / 0.0)));
  EXPECT_TRUE(is_valid_json(json_number(0.0 / 0.0)));
}

// ------------------------------------------------------------ instruments

TEST(ObsMetrics, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeBasics) {
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsMetrics, HistogramBucketsAndSum) {
  SlidingHistogram h;
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(99);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count, 4u);
  EXPECT_DOUBLE_EQ(snap.total_sum, 0.0 + 1.0 + 3.0 + 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);  // values below 16 are exact
  EXPECT_NEAR(h.quantile(1.0), 99.0,
              99.0 * SlidingHistogram::kMaxRelativeError);
  h.reset();
  snap = h.snapshot();
  EXPECT_EQ(snap.total_count, 0u);
  EXPECT_DOUBLE_EQ(snap.total_sum, 0.0);
}

TEST(ObsMetrics, HistogramMergeBuckets) {
  // A hot loop tallies locally and flushes each value once with its
  // count (lz77.chain_len): the result equals one record per value.
  SlidingHistogram counted, one_by_one;
  const std::pair<std::uint64_t, std::uint64_t> tally[] = {
      {1, 5}, {40, 2}, {700, 1}, {9, 0}};
  for (const auto& [v, n] : tally) {
    counted.record(v, n);
    for (std::uint64_t i = 0; i < n; ++i) one_by_one.record(v);
  }
  const auto a = counted.snapshot();
  const auto b = one_by_one.snapshot();
  EXPECT_EQ(a.total_count, 8u);
  EXPECT_DOUBLE_EQ(a.total_sum, 5.0 + 80.0 + 700.0);
  EXPECT_EQ(a.window_count, b.window_count);
  EXPECT_DOUBLE_EQ(a.window_sum, b.window_sum);
  EXPECT_DOUBLE_EQ(a.total_sum, b.total_sum);
  for (const double q : {0.1, 0.5, 0.75, 0.9, 1.0})
    EXPECT_EQ(counted.quantile(q), one_by_one.quantile(q)) << "q=" << q;
}

TEST(ObsMetrics, Pow2BucketMatchesObserve) {
  // lz77 tallies finds by bucket_index and flushes each bucket at its
  // lower bound: that value must land back in the same bucket, so the
  // flushed histogram is the one a record per find would build.
  for (std::uint64_t v = 0; v <= 5000; ++v) {
    const int b = SlidingHistogram::bucket_index(v);
    ASSERT_LE(SlidingHistogram::bucket_lower(b), v);
    ASSERT_LT(v, SlidingHistogram::bucket_upper(b));
    ASSERT_EQ(SlidingHistogram::bucket_index(
                  SlidingHistogram::bucket_lower(b)),
              b)
        << "v=" << v;
  }
}

TEST(ObsMetrics, RegistryDedupAndSnapshot) {
  auto& r = Registry::global();
  Counter& a = r.counter("test.obs.dedup");
  Counter& b = r.counter("test.obs.dedup");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(7);
  const auto snap = r.counter_values();
  ASSERT_TRUE(snap.count("test.obs.dedup"));
  EXPECT_EQ(snap.at("test.obs.dedup"), 7u);

  // Options apply on first registration only; later calls reuse them.
  SlidingHistogram& h1 = r.sliding("test.obs.h", {.window_s = 10.0});
  SlidingHistogram& h2 = r.sliding("test.obs.h", {.window_s = 99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.options().window_s, 10.0);
}

TEST(ObsMetrics, ResetKeepsReferencesValid) {
  auto& r = Registry::global();
  Counter& c = r.counter("test.obs.reset_ref");
  c.add(3);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the macro-cached static pattern relies on this
  EXPECT_EQ(r.counter("test.obs.reset_ref").value(), 2u);
}

TEST(ObsMetrics, ExportsAreWellFormed) {
  auto& r = Registry::global();
  r.counter("test.obs.\"quoted\"\nname").add(1);
  r.gauge("test.obs.gauge").set(-5);
  r.sliding("test.obs.export_h").record(3);
  const std::string json = r.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"sliding\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsMetrics, SnapshotOrderIsSortedByName) {
  // benchdiff and the golden sidecar tests rely on snapshots being
  // deterministic: instruments appear sorted by name no matter the
  // registration order.
  auto& r = Registry::global();
  r.counter("test.order.zz").add(1);
  r.counter("test.order.aa").add(1);
  r.counter("test.order.mm").add(1);
  r.gauge("test.order.g2").set(2);
  r.gauge("test.order.g1").set(1);
  const std::string s = r.to_json();
  const auto a = s.find("test.order.aa");
  const auto m = s.find("test.order.mm");
  const auto z = s.find("test.order.zz");
  ASSERT_NE(a, std::string::npos) << s;
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m) << "snapshot not sorted:\n" << s;
  EXPECT_LT(m, z) << "snapshot not sorted:\n" << s;
  EXPECT_LT(s.find("test.order.g1"), s.find("test.order.g2"));
  // Same registry, same contents -> byte-identical snapshot.
  EXPECT_EQ(r.to_json(), r.to_json());
}

TEST(ObsMetrics, ConcurrentIncrementsDontLose) {
  auto& r = Registry::global();
  Counter& c = r.counter("test.obs.mt_counter");
  SlidingHistogram& h = r.sliding("test.obs.mt_hist");
  c.reset();
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(t % 5));
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.total_sum, (0 + 1 + 2 + 3 + 4 + 0 + 1 + 2) *
                                       static_cast<double>(kPerThread));
}

// ----------------------------------------------------------------- tracer

/// Restores a clean disabled/empty tracer however the test exits.
struct TracerGuard {
  ~TracerGuard() {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST(ObsTrace, DisabledRecordsNothing) {
  TracerGuard guard;
  auto& tr = Tracer::global();
  tr.disable();
  tr.clear();
  { Span s("ignored", "test"); }
  tr.add_complete("ignored", "test", 0.0, 1.0);
  tr.add_sim_complete("ignored", "test", 0.0, 1.0);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(ObsTrace, SpanRecordsWallEvent) {
  TracerGuard guard;
  auto& tr = Tracer::global();
  tr.enable();
  { Span s("unit_span", "test"); }
  EXPECT_EQ(tr.event_count(), 1u);
  const std::string json = tr.to_chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"unit_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsTrace, SimEventsMapSecondsToMicros) {
  TracerGuard guard;
  auto& tr = Tracer::global();
  tr.enable();
  tr.add_sim_complete("phase", "sim_test", 1.5, 0.25);
  const std::string json = tr.to_chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  // 1.5 s -> 1.5e6 us on the sim track (pid 2).
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":250000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  const std::string summary = tr.summary_text();
  EXPECT_NE(summary.find("phase"), std::string::npos);
}

TEST(ObsTrace, CounterEventsCarryValueNotDuration) {
  TracerGuard guard;
  auto& tr = Tracer::global();
  tr.enable();
  // 2.5 is exactly representable, so %.17g prints it without cruft.
  tr.add_sim_counter("power_w", "test", 1.5, 2.5);
  const std::string json = tr.to_chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"value\":2.5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"dur\""), std::string::npos)
      << "counter events must not carry a duration: " << json;
  // Counters have no duration; the span summary must skip them.
  EXPECT_EQ(tr.summary_text().find("power_w"), std::string::npos);
}

TEST(ObsTrace, DisabledIgnoresCounters) {
  TracerGuard guard;
  auto& tr = Tracer::global();
  tr.disable();
  tr.clear();
  tr.add_counter("c", "test", 0.0, 1.0);
  tr.add_sim_counter("c", "test", 0.0, 1.0);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(ObsTrace, ClearEmptiesEventLog) {
  TracerGuard guard;
  auto& tr = Tracer::global();
  tr.enable();
  tr.add_complete("x", "test", 0.0, 1.0);
  ASSERT_GT(tr.event_count(), 0u);
  tr.clear();
  EXPECT_EQ(tr.event_count(), 0u);
}

// ----------------------------------------------------- build-mode no-ops

TEST(ObsMacros, MacrosCompileInThisBuildMode) {
#if defined(ECOMP_OBS_ENABLED)
  Registry::global().counter("test.obs.macro").reset();
#endif
  ECOMP_COUNT("test.obs.macro");
  ECOMP_COUNT_N("test.obs.macro", 4);
  ECOMP_GAUGE_SET("test.obs.macro_gauge", 11);
  ECOMP_SLIDING_OBSERVE("test.obs.macro_hist", 3);
  ECOMP_TRACE_SPAN("test.obs.macro_span", "test");
#if defined(ECOMP_OBS_ENABLED)
  static_assert(kObsEnabled);
  EXPECT_EQ(Registry::global().counter("test.obs.macro").value(), 5u);
  EXPECT_EQ(Registry::global().gauge("test.obs.macro_gauge").value(), 11);
  EXPECT_EQ(
      Registry::global().sliding("test.obs.macro_hist").snapshot().total_count,
      1u);
#else
  // ECOMP_OBS=OFF: the macros must evaluate nothing — names never reach
  // the registry.
  static_assert(!kObsEnabled);
  EXPECT_FALSE(Registry::global().counter_values().count("test.obs.macro"));
#endif
}

}  // namespace
}  // namespace ecomp::obs
