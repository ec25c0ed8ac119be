// In-memory spans for the traced run. Each client thread owns a
// SpanSink; spans nest through an open-span stack, so a span's parent is
// whatever was open when it began, and every span carries the id of the
// op it belongs to. Nothing is written until the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

/// CPU time of the calling thread in nanoseconds. Time the virtual CPU
/// spends descheduled by the host is not in it, unlike now_ns().
std::int64_t thread_cpu_ns();

struct SpanRec {
  const char* name = "";    ///< static string
  std::uint32_t op = 0;
  std::int32_t parent = -1;  ///< index in the same vector; -1 = op root
  std::uint32_t tid = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t dur_ns() const { return t1_ns - t0_ns; }
};

/// One thread's spans. Not thread-safe: each client thread has its own.
class SpanSink {
 public:
  explicit SpanSink(std::uint32_t tid = 0) : tid_(tid) {}
  void set_op(std::uint32_t op) { op_ = op; }
  int open(const char* name);
  void close(int idx);
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  std::uint32_t tid_;
  std::uint32_t op_ = 0;
};

/// RAII span; a null sink records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name)
      : sink_(sink), idx_(sink ? sink->open(name) : -1) {}
  ~ScopedSpan() {
    if (sink_) sink_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSink* sink_;
  int idx_;
};

/// Append one thread's spans to `out`, keeping parent links valid.
void append_spans(std::vector<SpanRec>& out, const SpanSink& sink);

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
std::vector<std::int64_t> self_ns(const std::vector<SpanRec>& spans);

/// Chrome trace-event JSON (what Perfetto and chrome://tracing open):
/// one complete event per span with op id, parent and self time in its
/// args. Only the first `per_thread` spans of each thread are written,
/// to bound the file.
std::string chrome_trace_json(const std::vector<SpanRec>& spans,
                              std::size_t per_thread);

}  // namespace perfbench
