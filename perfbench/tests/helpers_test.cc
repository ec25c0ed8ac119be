// Tests for the benchmark's own helpers: percentiles with failures,
// span self time, seeded op lists, and the traced clients' request
// frames. Build the perfbench_tests target and run `ctest` in the
// benchmark's build directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "adapter.h"
#include "ops.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, FailuresSortPastEverySample) {
  const std::vector<double> v = {3.0, 1.0, kFailed, 2.0};
  EXPECT_EQ(percentile(v, 50), 2.0);
  EXPECT_TRUE(std::isinf(percentile(v, 99)));
  EXPECT_EQ(percentile({5.0}, 99), 5.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, OneFailureInAHundredStaysBelowP99) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  v.push_back(kFailed);
  EXPECT_EQ(percentile(v, 99), 99.0);
  v.back() = 100.0;
  v.front() = kFailed;  // the failure is the largest sample either way
  EXPECT_TRUE(std::isinf(percentile(v, 100)));
}

TEST(Percentile, TenSamplesBeyondRule) {
  // A p99 needs 1000 samples, a p90 100, to leave ten beyond it.
  EXPECT_EQ(beyond(1000, 99), 10u);
  EXPECT_EQ(beyond(999, 99), 9u);
  EXPECT_EQ(beyond(3000, 99), 30u);
  EXPECT_EQ(beyond(100, 90), 10u);
  EXPECT_EQ(beyond(99, 90), 9u);
  EXPECT_EQ(beyond(111, 90), 11u);
  EXPECT_EQ(beyond(0, 99), 0u);
}

TEST(Windowed, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3}, 0.75), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_TRUE(std::isinf(quantile({1, kFailed}, 0.5)));
  EXPECT_DOUBLE_EQ(quantile({1, 1, kFailed}, 0.5), 1.0);
}

TEST(Windowed, TailJoinsTheLastWindow) {
  // Windows [1 2] and [10 20 100]: p50s 1 and 20.
  EXPECT_DOUBLE_EQ(windowed_percentile({1, 2, 10, 20, 100}, 2, 50, 0.5), 10.5);
  EXPECT_DOUBLE_EQ(windowed_percentile({1, 2, 10, 20, 100}, 2, 50, 0.0), 1.0);
  // Fewer samples than a window: one window.
  EXPECT_DOUBLE_EQ(windowed_percentile({4, 1, 3}, 10, 50, 0.25), 3.0);
  // A failure inside one window moves only that window.
  EXPECT_DOUBLE_EQ(
      windowed_percentile({1, kFailed, 1, 1, 1, 1}, 2, 99, 0.5), 1.0);
}

TEST(Windowed, RatioPerWindow) {
  // Windows [1 1 | 1 1] and [3 3 | 1 1]: ratios 1 and 3.
  EXPECT_DOUBLE_EQ(windowed_ratio({1, 1, 3, 3}, {1, 1, 1, 1}, 2, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(windowed_ratio({1, 1, 3, 3}, {1, 1, 1, 1}, 2, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(windowed_ratio({1, 1, 1, 1}, {1, 1, 1, 1}, 10, 0.75), 1.0);
  // A window with nothing in its denominator is left out.
  EXPECT_DOUBLE_EQ(windowed_ratio({5, 5, 4, 4}, {0, 0, 2, 2}, 2, 0.5), 2.0);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  std::vector<SpanRec> s(4);
  s[0] = {"root", 0, -1, 0, 0, 100};
  s[1] = {"a", 0, 0, 0, 10, 30};
  s[2] = {"b", 0, 0, 0, 20, 50};    // overlaps a: counted once
  s[3] = {"c", 0, 0, 0, 90, 120};   // runs past the root: clipped
  const std::vector<std::int64_t> self = self_ns(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 30);
}

TEST(Spans, SinkNestsAndAppendKeepsParents) {
  SpanSink a(1), b(2);
  a.set_op(7);
  {
    ScopedSpan root(&a, "root");
    ScopedSpan child(&a, "child");
  }
  { ScopedSpan other(&b, "other"); }
  { ScopedSpan none(nullptr, "ignored"); }
  std::vector<SpanRec> all;
  append_spans(all, b);
  append_spans(all, a);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].parent, -1);
  EXPECT_EQ(all[1].parent, -1);
  EXPECT_EQ(all[2].parent, 1);
  EXPECT_EQ(all[2].op, 7u);
  EXPECT_LE(all[1].t0_ns, all[2].t0_ns);
  EXPECT_GE(all[1].t1_ns, all[2].t1_ns);
  const std::string json = chrome_trace_json(all, 100);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
  // One span per thread: thread 1 keeps "root" and drops "child".
  const std::string first = chrome_trace_json(all, 1);
  EXPECT_NE(first.find("\"root\""), std::string::npos);
  EXPECT_EQ(first.find("\"child\""), std::string::npos);
}

std::vector<std::size_t> sample_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 37; ++i) sizes.push_back(4096 + 13000 * i);
  return sizes;
}

TEST(Ops, SameSeedSameOps) {
  const auto sizes = sample_sizes();
  for (Workload w : {Workload::WarmGet, Workload::OndemandGet}) {
    const auto a = make_ops(w, sizes, 42, 1200);
    const auto b = make_ops(w, sizes, 42, 1200);
    const auto c = make_ops(w, sizes, 43, 1200);
    EXPECT_EQ(a, b) << workload_name(w);
    EXPECT_NE(a, c) << workload_name(w);
  }
  // The codec cycle is the same for every seed.
  EXPECT_EQ(make_ops(Workload::CodecCorpus, sizes, 42, 0),
            make_ops(Workload::CodecCorpus, sizes, 43, 0));
}

TEST(Ops, WorkloadShapes) {
  const auto sizes = sample_sizes();
  const auto warm = make_ops(Workload::WarmGet, sizes, 1, 3 * kEpochOps);
  std::size_t by_mode[3] = {};
  for (const Op& op : warm) ++by_mode[static_cast<int>(op.mode)];
  for (std::size_t n : by_mode) EXPECT_NEAR(n, warm.size() / 3.0, 40.0);

  const auto ondemand =
      make_ops(Workload::OndemandGet, sizes, 1, 4 * kEpochOps);
  ASSERT_EQ(ondemand.size(), 4 * kEpochOps);
  std::size_t full = 0;
  for (const Op& op : ondemand) {
    EXPECT_EQ(op.client, Client::Download);
    EXPECT_NE(op.mode, Mode::Raw);
    full += op.mode == Mode::Full;
  }
  EXPECT_NEAR(full, ondemand.size() / 2.0, 40.0);

  const auto codec = make_ops(Workload::CodecCorpus, sizes, 1, 0);
  EXPECT_EQ(codec.size(), sizes.size() * kCodecCount);
}

TEST(Ops, ZipfQuotaAndPopularityOrder) {
  const auto q = zipf_quota(37, 300);
  std::size_t total = 0;
  for (auto n : q) total += n;
  EXPECT_EQ(total, 300u);
  EXPECT_TRUE(std::is_sorted(q.rbegin(), q.rend()));

  const auto sizes = sample_sizes();
  const auto order = popularity_order(sizes, 9);
  EXPECT_EQ(std::set<std::uint32_t>(order.begin(), order.end()).size(),
            sizes.size());
  // Rank 0 always comes from the smallest size band.
  EXPECT_LT(order[0], 3u);
}

TEST(Ops, ReferenceOpsHaveAFixedMakeUp) {
  const auto a = make_reference_gets(37, 1, 10);
  const auto b = make_reference_gets(37, 2, 10);
  ASSERT_EQ(a.size(), 1110u);
  auto key = [](const Op& op) { return op.file * 3 + static_cast<int>(op.mode); };
  std::multiset<int> ka, kb;
  for (const Op& op : a) ka.insert(key(op));
  for (const Op& op : b) kb.insert(key(op));
  EXPECT_EQ(ka, kb);
  EXPECT_NE(a, b);
  // Each run of 37 PUTs writes every file once; versions count up.
  const auto puts = make_reference_puts(37, 1, 3);
  ASSERT_EQ(puts.size(), 111u);
  for (std::size_t r = 0; r < 3; ++r) {
    std::set<std::uint32_t> files;
    for (std::size_t i = r * 37; i < (r + 1) * 37; ++i) files.insert(puts[i].file);
    EXPECT_EQ(files.size(), 37u);
  }
  for (std::size_t i = 0; i < puts.size(); ++i)
    EXPECT_EQ(puts[i].version, i + 1);
}

TEST(Ops, VersionsDifferOnlyInTheStamp) {
  const Buf original(5000, 'a');
  const Buf v77 = versioned(original, 77);
  ASSERT_EQ(v77.size(), original.size());
  EXPECT_NE(v77, original);
  EXPECT_NE(v77, versioned(original, 78));
  EXPECT_EQ(v77, versioned(original, 77));
  EXPECT_TRUE(std::equal(v77.begin() + 8, v77.end(), original.begin() + 8));
  EXPECT_EQ(versioned(Buf(3, 'a'), 1).size(), 8u);
}

// The traced twins must put the same request frames on the wire as the
// entry points they stand in for.
TEST(TracedClient, RequestFramesMatchTheEntryPoints) {
  constexpr std::uint64_t kTrace = 0x00c0ffee12345678ull;
  for (Mode m : {Mode::Raw, Mode::Full, Mode::Selective}) {
    const std::string plain =
        capture_request(Client::Download, m, "a.txt", false, kTrace);
    EXPECT_EQ(plain, std::string("GET ") + mode_name(m) +
                         " a.txt trace=00c0ffee12345678");
    EXPECT_EQ(capture_request(Client::Download, m, "a.txt", true, kTrace),
              plain);
    const std::string ranged =
        capture_request(Client::Resilient, m, "b.bin", false, kTrace);
    EXPECT_EQ(ranged, std::string("GET-RANGE ") + mode_name(m) +
                          " b.bin 0 trace=00c0ffee12345678");
    EXPECT_EQ(capture_request(Client::Resilient, m, "b.bin", true, kTrace),
              ranged);
  }
  const std::string put =
      capture_request(Client::Upload, Mode::Raw, "c.up", false, kTrace);
  EXPECT_EQ(put, "PUT c.up trace=00c0ffee12345678");
  EXPECT_EQ(capture_request(Client::Upload, Mode::Raw, "c.up", true, kTrace),
            put);
}

}  // namespace
}  // namespace perfbench
