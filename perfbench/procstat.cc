// Replaces the global allocation functions to count operator new calls
// with relaxed atomics. Linked into the executable itself so the
// replacement applies to every allocation in the process.
#include "procstat.h"

#include <sys/resource.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return ::posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* alloc_or_throw(std::size_t n, std::size_t align) {
  void* p = counted_alloc(n, align);
  if (!p) throw std::bad_alloc();
  return p;
}

// The replaced deletes must release what the replaced news allocated.
void release(void* p) { std::free(p); }

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return alloc_or_throw(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return alloc_or_throw(n, kDefaultAlign); }
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace perfbench {

ProcSample proc_sample() {
  ProcSample s;
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) == 0)
    s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
  s.allocs = g_allocs.load(std::memory_order_relaxed);
  s.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  return s;
}

double rss_peak_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  std::fclose(f);
  return kb / 1024.0;
}

bool reset_rss_peak() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
