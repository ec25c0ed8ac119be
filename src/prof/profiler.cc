#include "prof/profiler.h"

#include <dlfcn.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "prof/zone.h"

namespace ecomp::prof {
namespace {

std::atomic<std::uint64_t> g_lifetime_samples{0};
std::atomic<bool> g_sampler_armed{false};
bool g_handler_installed = false;  // guarded by g_run.mu

/// Pull the interrupted PC / frame pointer / stack pointer out of the
/// signal ucontext. Zeroes on unsupported architectures (the sample
/// then carries zones only).
void machine_regs(void* uctx, std::uintptr_t& pc, std::uintptr_t& fp,
                  std::uintptr_t& sp) {
  pc = fp = sp = 0;
  if (!uctx) return;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uctx;
#endif
}

/// Best-effort frame-pointer walk (needs -fno-omit-frame-pointer, which
/// the top-level CMakeLists sets). Every dereference is constrained to a
/// window above the interrupted SP so a non-frame RBP cannot fault us
/// out of the signal handler.
int walk_frames(std::uintptr_t pc, std::uintptr_t fp, std::uintptr_t sp,
                std::uintptr_t* out, int max) {
  int n = 0;
  if (pc && n < max) out[n++] = pc;
  constexpr std::uintptr_t kWindow = 128 * 1024;
  std::uintptr_t cur = fp;
  while (n < max && cur >= sp && cur - sp < kWindow &&
         (cur & (sizeof(void*) - 1)) == 0) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(cur);
    const std::uintptr_t next = frame[0];
    const std::uintptr_t ret = frame[1];
    if (!ret) break;
    out[n++] = ret;
    if (next <= cur) break;
    cur = next;
  }
  return n;
}

void sigprof_handler(int, siginfo_t*, void* uctx) {
  const int saved_errno = errno;
  ThreadProf* tp = t_prof;
  if (tp) {
    // seq_cst handshake with the ring-freeing side in stop(): either we
    // see the detached (null) ring, or stop() sees in_handler and waits.
    tp->in_handler.store(true, std::memory_order_seq_cst);
    Sample* ring = tp->ring.load(std::memory_order_seq_cst);
    if (ring && g_sampler_armed.load(std::memory_order_relaxed)) {
      const std::uint32_t head = tp->head.load(std::memory_order_relaxed);
      const std::uint32_t tail = tp->tail.load(std::memory_order_acquire);
      if (head - tail >= tp->ring_cap) {
        tp->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        Sample& s = ring[head % tp->ring_cap];
        std::int32_t d = tp->depth.load(std::memory_order_acquire);
        if (d > kMaxZoneDepth) d = kMaxZoneDepth;
        for (std::int32_t i = 0; i < d; ++i) s.frames[i] = tp->stack[i];
        s.depth = d;
        std::uintptr_t pc, fp, sp;
        machine_regs(uctx, pc, fp, sp);
        s.n_pcs = walk_frames(pc, fp, sp, s.pcs, kMaxPcFrames);
        tp->head.store(head + 1, std::memory_order_release);
        g_lifetime_samples.fetch_add(1, std::memory_order_relaxed);
      }
    }
    tp->in_handler.store(false, std::memory_order_release);
  }
  errno = saved_errno;
}

struct Aggregate {
  std::map<std::string, std::uint64_t> folded;  ///< stack -> samples
  std::map<std::string, std::uint64_t> leaf;    ///< top zone -> samples
  std::map<std::uintptr_t, std::uint64_t> pcs;  ///< interrupted PC -> n
  std::uint64_t samples = 0;
};

struct RunState {
  std::mutex mu;  ///< serializes start()/stop(); collector has its own
  bool running = false;
  ProfilerOptions opt;
  std::chrono::steady_clock::time_point t0;

  std::thread collector;
  std::mutex coll_mu;
  std::condition_variable coll_cv;
  bool coll_stop = false;

  std::mutex agg_mu;
  Aggregate agg;
};

RunState& run_state() {
  static RunState s;
  return s;
}

void append_label(std::string& out, const ZoneLabel& lab) {
  if (lab.ptr && lab.len)
    out.append(lab.ptr, lab.len);
  else
    out.append("(unnamed)");
}

void consume_sample(Aggregate& agg, const Sample& s) {
  std::string key = "ecomp";
  for (std::int32_t i = 0; i < s.depth; ++i) {
    key.push_back(';');
    append_label(key, s.frames[i]);
  }
  if (s.depth == 0) key.append(";(untracked)");
  agg.folded[key] += 1;
  std::string leaf;
  if (s.depth > 0)
    append_label(leaf, s.frames[s.depth - 1]);
  else
    leaf = "(untracked)";
  agg.leaf[leaf] += 1;
  if (s.n_pcs > 0) agg.pcs[s.pcs[0]] += 1;
  agg.samples += 1;
}

void drain_ring(Aggregate& agg, ThreadProf* tp) {
  Sample* ring = tp->ring.load(std::memory_order_acquire);
  if (!ring) return;
  std::uint32_t tail = tp->tail.load(std::memory_order_relaxed);
  const std::uint32_t head = tp->head.load(std::memory_order_acquire);
  while (tail != head) {
    consume_sample(agg, ring[tail % tp->ring_cap]);
    ++tail;
  }
  tp->tail.store(tail, std::memory_order_release);
}

void drain_all_rings() {
  RunState& rs = run_state();
  std::vector<ThreadProf*> threads;
  {
    std::lock_guard lock(g_zones.mu);
    threads = g_zones.threads;
  }
  std::lock_guard lock(rs.agg_mu);
  for (ThreadProf* tp : threads) drain_ring(rs.agg, tp);
}

void collector_main() {
  RunState& rs = run_state();
  while (true) {
    bool stopping;
    {
      std::unique_lock lock(rs.coll_mu);
      rs.coll_cv.wait_for(lock, std::chrono::milliseconds(10),
                          [&] { return rs.coll_stop; });
      stopping = rs.coll_stop;
    }
    drain_all_rings();
    if (stopping) break;
  }
}

/// Detach and free `tp`'s ring, waiting out any SIGPROF handler that
/// already holds the old pointer (see the seq_cst handshake above).
void free_ring(ThreadProf* tp) {
  Sample* ring = tp->ring.exchange(nullptr, std::memory_order_seq_cst);
  if (!ring) return;
  while (tp->in_handler.load(std::memory_order_acquire))
    std::this_thread::yield();
  delete[] ring;
}

std::string symbolize(std::uintptr_t pc) {
  Dl_info info;
  std::memset(&info, 0, sizeof info);
  char buf[256];
  if (dladdr(reinterpret_cast<void*>(pc), &info) && info.dli_sname) {
    const auto off =
        pc - reinterpret_cast<std::uintptr_t>(info.dli_saddr);
    std::snprintf(buf, sizeof buf, "%s+0x%llx", info.dli_sname,
                  static_cast<unsigned long long>(off));
    return buf;
  }
  if (info.dli_fname) {
    const char* base = std::strrchr(info.dli_fname, '/');
    const auto off =
        pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    std::snprintf(buf, sizeof buf, "%s+0x%llx", base ? base + 1 : info.dli_fname,
                  static_cast<unsigned long long>(off));
    return buf;
  }
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler p;
  return p;
}

bool Profiler::running() const {
  RunState& rs = run_state();
  std::lock_guard lock(rs.mu);
  return rs.running;
}

std::uint64_t Profiler::lifetime_samples() {
  return g_lifetime_samples.load(std::memory_order_relaxed);
}

bool Profiler::sampler_active() {
  return g_sampler_armed.load(std::memory_order_relaxed);
}

bool Profiler::start(const ProfilerOptions& opt) {
  RunState& rs = run_state();
  std::lock_guard lock(rs.mu);
  if (rs.running) return false;
  if (!opt.sampling && !opt.timing) return false;
  if (opt.sampling && opt.hz <= 0) return false;

  rs.opt = opt;
  rs.t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard agg_lock(rs.agg_mu);
    rs.agg = Aggregate{};
  }

  thread_prof();  // make sure the starting thread is registered
  {
    std::lock_guard zlock(g_zones.mu);
    g_zones.ring_cap.store(opt.ring_capacity > 64 ? opt.ring_capacity : 64,
                           std::memory_order_relaxed);
    g_zones.want_ring.store(opt.sampling, std::memory_order_relaxed);
    for (ThreadProf* tp : g_zones.threads) {
      tp->self_used.store(0, std::memory_order_relaxed);
      tp->self_other_ns.store(0, std::memory_order_relaxed);
      tp->last_switch_ns.store(0, std::memory_order_relaxed);
      tp->dropped.store(0, std::memory_order_relaxed);
      tp->truncated.store(0, std::memory_order_relaxed);
      if (opt.sampling && !tp->retired.load(std::memory_order_relaxed))
        attach_ring(tp);
    }
  }

  unsigned mode = 0;
  if (opt.sampling) mode |= kZoneSampling;
  if (opt.timing) mode |= kZoneTiming;
  g_zone_mode.store(mode, std::memory_order_release);

  if (opt.sampling) {
    if (!g_handler_installed) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof sa);
      sa.sa_sigaction = sigprof_handler;
      sa.sa_flags = SA_SIGINFO | SA_RESTART;
      sigemptyset(&sa.sa_mask);
      sigaction(SIGPROF, &sa, nullptr);
      g_handler_installed = true;
    }
    {
      std::lock_guard clock_lock(rs.coll_mu);
      rs.coll_stop = false;
    }
    rs.collector = std::thread(collector_main);
    g_sampler_armed.store(true, std::memory_order_release);
    const long interval_us = std::max(1000000L / opt.hz, 1L);
    itimerval timer;
    timer.it_interval.tv_sec = interval_us / 1000000;
    timer.it_interval.tv_usec = interval_us % 1000000;
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
  }

  rs.running = true;
  return true;
}

ProfileReport Profiler::stop() {
  RunState& rs = run_state();
  std::lock_guard lock(rs.mu);
  ProfileReport report;
  if (!rs.running) return report;

  if (rs.opt.sampling) {
    itimerval off;
    std::memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, nullptr);
    g_sampler_armed.store(false, std::memory_order_release);
  }
  g_zone_mode.store(0, std::memory_order_release);
  // Let in-flight handlers and zone switches that loaded the old mode
  // finish before tearing the rings down / reading the self tables.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  if (rs.opt.sampling) {
    {
      std::lock_guard clock_lock(rs.coll_mu);
      rs.coll_stop = true;
    }
    rs.coll_cv.notify_all();
    if (rs.collector.joinable()) rs.collector.join();
    drain_all_rings();  // collector's final pass + this = everything
    std::lock_guard zlock(g_zones.mu);
    g_zones.want_ring.store(false, std::memory_order_relaxed);
    for (ThreadProf* tp : g_zones.threads) free_ring(tp);
  }

  report.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - rs.t0)
          .count();
  report.hz = rs.opt.sampling ? rs.opt.hz : 0;

  // Exact self-time tables, merged across threads by label content.
  struct Timing {
    std::uint64_t ns = 0;
    std::uint64_t hits = 0;
  };
  std::map<std::string, Timing> timing;
  std::uint64_t other_ns = 0;
  {
    std::lock_guard zlock(g_zones.mu);
    for (ThreadProf* tp : g_zones.threads) {
      report.truncated += tp->truncated.load(std::memory_order_relaxed);
      report.dropped += tp->dropped.load(std::memory_order_relaxed);
      other_ns += tp->self_other_ns.load(std::memory_order_relaxed);
      const int used = tp->self_used.load(std::memory_order_acquire);
      for (int i = 0; i < used; ++i) {
        const SelfSlot& s = tp->self[i];
        const char* p = s.ptr.load(std::memory_order_relaxed);
        if (!p) continue;
        std::string label(p, s.len.load(std::memory_order_relaxed));
        Timing& t = timing[label];
        t.ns += s.self_ns.load(std::memory_order_relaxed);
        t.hits += s.hits.load(std::memory_order_relaxed);
      }
    }
  }
  if (other_ns) timing["(other)"].ns += other_ns;

  Aggregate agg;
  {
    std::lock_guard agg_lock(rs.agg_mu);
    agg = std::move(rs.agg);
    rs.agg = Aggregate{};
  }
  report.samples = agg.samples;
  report.folded.assign(agg.folded.begin(), agg.folded.end());

  for (const auto& [label, t] : timing) report.total_self_ns += t.ns;
  std::map<std::string, SelfRow> rows;
  for (const auto& [label, t] : timing) {
    SelfRow& r = rows[label];
    r.label = label;
    r.self_ns = t.ns;
    r.hits = t.hits;
  }
  for (const auto& [label, n] : agg.leaf) {
    SelfRow& r = rows[label];
    r.label = label;
    r.samples = n;
  }
  for (auto& [label, r] : rows) {
    if (report.total_self_ns)
      r.time_pct = 100.0 * static_cast<double>(r.self_ns) /
                   static_cast<double>(report.total_self_ns);
    if (report.samples)
      r.sample_pct = 100.0 * static_cast<double>(r.samples) /
                     static_cast<double>(report.samples);
    report.self.push_back(r);
  }
  std::sort(report.self.begin(), report.self.end(),
            [](const SelfRow& a, const SelfRow& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.label < b.label;
            });

  std::map<std::string, std::uint64_t> sym;
  for (const auto& [pc, n] : agg.pcs) sym[symbolize(pc)] += n;
  report.pc_hot.assign(sym.begin(), sym.end());
  std::sort(report.pc_hot.begin(), report.pc_hot.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  rs.running = false;
  return report;
}

std::string ProfileReport::to_folded() const {
  std::string out;
  for (const auto& [stack, n] : folded) {
    out += stack;
    out.push_back(' ');
    out += std::to_string(n);
    out.push_back('\n');
  }
  return out;
}

std::string ProfileReport::to_table() const {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "profile: %.3fs hz=%d samples=%llu dropped=%llu "
                "truncated=%llu\n",
                duration_s, hz, static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(truncated));
  os << buf;
  os << "zone                              self_ms   time%  samples  "
        "sample%     hits\n";
  for (const SelfRow& r : self) {
    std::snprintf(buf, sizeof buf, "%-32s %9.3f %7.2f %8llu %8.2f %8llu\n",
                  r.label.c_str(),
                  static_cast<double>(r.self_ns) / 1e6, r.time_pct,
                  static_cast<unsigned long long>(r.samples), r.sample_pct,
                  static_cast<unsigned long long>(r.hits));
    os << buf;
  }
  if (!pc_hot.empty()) {
    os << "hot pcs (frame-pointer leaf):\n";
    std::size_t shown = 0;
    for (const auto& [name, n] : pc_hot) {
      if (++shown > 10) break;
      std::snprintf(buf, sizeof buf, "  %8llu  %s\n",
                    static_cast<unsigned long long>(n), name.c_str());
      os << buf;
    }
  }
  return os.str();
}

double ProfileReport::self_pct(std::string_view label) const {
  for (const SelfRow& r : self)
    if (r.label == label)
      return total_self_ns ? r.time_pct : r.sample_pct;
  return 0.0;
}

void write_folded(const std::string& path, const ProfileReport& report) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open profile output: " + path);
  out << report.to_folded();
  out.flush();
  if (!out) throw std::runtime_error("cannot write profile output: " + path);
}

std::int64_t rss_peak_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof line, f)) {
    long long v = 0;
    if (std::sscanf(line, "VmHWM: %lld kB", &v) == 1) {
      kb = v;
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace ecomp::prof
