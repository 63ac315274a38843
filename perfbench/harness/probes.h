// Measurement probes owned by the benchmark harness, never by the program:
// a monotonic clock, allocation counters fed by the harness's replacement of
// the global operator new, in-memory spans around calls into the program,
// the host reference kernel, and peak RSS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

// Allocation totals: calls to the global operator new and bytes requested.
struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCounts operator-(const AllocCounts& a, const AllocCounts& b);

// Counting is off until enabled; when off, operator new pays one relaxed
// load. Each thread counts into its own counters, which are folded into a
// process total when the thread exits.
void set_alloc_counting(bool on);
// Allocations made by the calling thread so far.
[[nodiscard]] AllocCounts alloc_this_thread();
// Allocations made by the calling thread plus every thread that has exited.
// Exact between calls into the program, when no other counting thread runs.
[[nodiscard]] AllocCounts alloc_all_threads();

// One harness span: a call into one layer of the program.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  int job = 0;
  AllocCounts alloc_own;  // allocations by the span's thread
  AllocCounts alloc_all;  // allocations by all threads (see alloc_all_threads)

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// Spans are recorded by one thread (the harness's) and kept in memory until
// write_chrome_json at exit.
class SpanRecorder {
 public:
  [[nodiscard]] int open(std::string name, int job);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // A span's duration minus the time its direct children cover.
  [[nodiscard]] double self_ms(int index) const;

  // Chrome trace-event JSON ("X" events; args carry parent, job, self time
  // and allocation counts).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder records nothing.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, std::string name, int job);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int index_ = -1;
};

// Fixed integer kernel (about 10 ms on a 2020s x86 core). Its time moves
// only with the host, never with the program, so it shows a slowed host.
[[nodiscard]] double host_ref_ms();

// Peak resident set size, MiB: since the last successful reset_peak_rss(),
// else since the process started.
[[nodiscard]] double peak_rss_mb();
// Resets the peak to the current resident set size; false where the kernel
// does not support it.
bool reset_peak_rss();

// 64-bit FNV-1a, for output digests.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 14695981039346656037ull);

// Median and quartiles (Python statistics.quantiles(n=4), "exclusive").
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
