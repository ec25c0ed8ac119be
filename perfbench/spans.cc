#include "spans.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int SpanSink::open(const char* name) {
  SpanRec r;
  r.name = name;
  r.op = op_;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.tid = tid_;
  r.t0_ns = now_ns();
  spans_.push_back(r);
  const int idx = static_cast<int>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void SpanSink::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].t1_ns = now_ns();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == idx) break;
  }
}

void append_spans(std::vector<SpanRec>& out, const SpanSink& sink) {
  const auto base = static_cast<std::int32_t>(out.size());
  for (SpanRec r : sink.spans()) {
    if (r.parent >= 0) r.parent += base;
    out.push_back(r);
  }
}

std::vector<std::int64_t> self_ns(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& p = spans[i];
    iv.clear();
    for (std::size_t c : children[i])
      iv.emplace_back(std::max(spans[c].t0_ns, p.t0_ns),
                      std::min(spans[c].t1_ns, p.t1_ns));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, end = p.t0_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, end);
      if (b > a) {
        covered += b - a;
        end = b;
      }
    }
    self[i] = p.dur_ns() - covered;
  }
  return self;
}

std::string chrome_trace_json(const std::vector<SpanRec>& spans,
                              std::size_t per_thread) {
  const std::vector<std::int64_t> self = self_ns(spans);
  std::int64_t t0 = spans.empty() ? 0 : spans.front().t0_ns;
  for (const SpanRec& s : spans) t0 = std::min(t0, s.t0_ns);
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"perfbench traced run\"}}";
  char buf[512];
  std::map<std::uint32_t, std::size_t> written;  // per thread
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (written[s.tid]++ >= per_thread) continue;
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"op\":%u,\"parent\":%d,\"self_us\":%.3f}}",
                  s.name, static_cast<double>(s.t0_ns - t0) / 1e3,
                  static_cast<double>(s.dur_ns()) / 1e3, s.tid, s.op,
                  s.parent, static_cast<double>(self[i]) / 1e3);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
