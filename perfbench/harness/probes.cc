#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

AllocCounts operator-(const AllocCounts& a, const AllocCounts& b) {
  return AllocCounts{a.calls - b.calls, a.bytes - b.bytes};
}

// -- allocation counting -----------------------------------------------------
//
// Per-thread counters are plain (trivially destructible) thread_locals, so
// touching them from operator new never allocates. A second thread_local
// with a destructor folds them into the process totals at thread exit; it is
// armed on a thread's first counted allocation.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint32_t> g_ref_sink{0};  // keeps the reference kernel's result live
std::atomic<std::uint64_t> g_exited_calls{0};
std::atomic<std::uint64_t> g_exited_bytes{0};

thread_local AllocCounts t_counts;

struct ExitFlush {
  ~ExitFlush() {
    g_exited_calls.fetch_add(t_counts.calls, std::memory_order_relaxed);
    g_exited_bytes.fetch_add(t_counts.bytes, std::memory_order_relaxed);
    t_counts = AllocCounts{};
  }
};
thread_local bool t_flush_armed = false;

void arm_flush() {
  t_flush_armed = true;
  // Registering the destructor may itself allocate; the flag above stops
  // that allocation from re-entering here.
  static thread_local ExitFlush flush;
  (void)flush;
}

inline void count_alloc(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (!t_flush_armed) arm_flush();
  ++t_counts.calls;
  t_counts.bytes += n;
}

void* checked_malloc(std::size_t n) {
  count_alloc(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t n, std::align_val_t al) {
  count_alloc(n);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts alloc_this_thread() { return t_counts; }

AllocCounts alloc_all_threads() {
  return AllocCounts{g_exited_calls.load(std::memory_order_relaxed) + t_counts.calls,
                     g_exited_bytes.load(std::memory_order_relaxed) + t_counts.bytes};
}

// -- spans -------------------------------------------------------------------

int SpanRecorder::open(std::string name, int job) {
  Span s;
  s.name = std::move(name);
  s.job = job;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  // Counters are read after the recorder's own vectors grew, so a span
  // counts only the program's allocations.
  Span& opened = spans_.back();
  opened.alloc_own = alloc_this_thread();
  opened.alloc_all = alloc_all_threads();
  opened.start_ns = now_ns();
  return open_.back();
}

void SpanRecorder::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  s.alloc_own = alloc_this_thread() - s.alloc_own;
  s.alloc_all = alloc_all_threads() - s.alloc_all;
  open_.pop_back();
}

double SpanRecorder::self_ms(int index) const {
  double self = spans_[static_cast<std::size_t>(index)].ms();
  for (const Span& s : spans_) {
    if (s.parent == index) self -= s.ms();
  }
  return self;
}

std::string SpanRecorder::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%d,\"self_ms\":%.6f,"
                  "\"alloc_calls\":%llu,\"alloc_bytes\":%llu,\"alloc_calls_all_threads\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.job,
                  self_ms(static_cast<int>(i)), static_cast<unsigned long long>(s.alloc_own.calls),
                  static_cast<unsigned long long>(s.alloc_own.bytes),
                  static_cast<unsigned long long>(s.alloc_all.calls));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

SpanScope::SpanScope(SpanRecorder* rec, std::string name, int job) : rec_(rec) {
  if (rec_ != nullptr) index_ = rec_->open(std::move(name), job);
}

SpanScope::~SpanScope() {
  if (rec_ != nullptr) rec_->close(index_);
}

// -- host reference, RSS, digests, quantiles ---------------------------------

double host_ref_ms() {
  // A 256 KiB table walked by a xorshift stream: integer ALU plus L2-resident
  // loads, no allocation, no syscalls.
  static std::uint32_t table[1u << 16];
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < (1u << 16); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[i] = static_cast<std::uint32_t>(x);
  }
  const std::int64_t t0 = now_ns();
  std::uint32_t acc = 0;
  for (int i = 0; i < 1500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[(x ^ acc) & 0xFFFFu];
  }
  const std::int64_t t1 = now_ns();
  g_ref_sink.store(acc, std::memory_order_relaxed);
  return static_cast<double>(t1 - t0) / 1e6;
}

bool reset_peak_rss() {
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Quartiles q;
  if (v.empty()) return q;
  if (v.size() == 1) return Quartiles{v[0], v[0], v[0]};
  // statistics.quantiles(v, n=4), method "exclusive".
  const std::size_t ld = v.size();
  const std::size_t m = ld + 1;
  double cut[3];
  for (std::size_t i = 1; i < 4; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench

// -- global allocation functions ---------------------------------------------
// The harness binary replaces them so every allocation the program makes
// while a span is open is counted (see count_alloc).

void* operator new(std::size_t n) { return perfbench::checked_malloc(n); }
void* operator new[](std::size_t n) { return perfbench::checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::checked_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::checked_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) { return perfbench::checked_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::checked_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
