// Deterministic trace layer: SimTime-stamped spans and instants with a
// bounded per-world ring buffer, merged across campaign shards into a
// chrome://tracing-loadable JSON stream.
//
// Design constraints, in order:
//   1. Determinism. Events are timestamped exclusively in SimTime — never the
//      wall clock — so a merged trace is a pure function of the spec and is
//      byte-identical for any `--threads N` (shards record independently and
//      merge in spec vantage order, mirroring the campaign-record merge).
//   2. Zero cost when disabled. Every emission site guards on a relaxed
//      atomic enabled flag behind a null-check of the queue's tracer pointer;
//      a disabled campaign does no interning, no allocation, no branching
//      beyond the flag read.
//   3. Bounded memory. The buffer is a fixed-capacity ring with drop-oldest
//      semantics (a flight recorder, not an archive); the dropped count is
//      reported in the export so truncation is never silent.
//
// Span durations: SimTime only advances between event-queue callbacks, so an
// OBS_SPAN scoped inside one callback records duration zero — it marks causal
// structure, not elapsed time. Phases that span simulated time (handshakes,
// exchanges, probes) are emitted as complete events from their already-stamped
// begin/duration pairs via OBS_COMPLETE.
//
// The begin_span/end_span pair below is the low-level protocol used by the
// OBS_SPAN RAII guard. Calling it by hand is rejected by the lint rule
// `obs-span-balance` outside src/obs — manual pairs are how spans leak.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/intern.h"
#include "util/json.h"
#include "netsim/time.h"

namespace ednsm::obs {

enum class EventKind : std::uint8_t {
  Instant,   // a point in simulated time ("i" in the Chrome stream)
  Complete,  // a [begin, begin+dur) interval ("X" in the Chrome stream)
};

struct TraceEvent {
  netsim::SimTime ts{0};
  netsim::SimDuration dur{0};
  util::InternTable::Symbol subsystem = 0;
  util::InternTable::Symbol name = 0;
  EventKind kind = EventKind::Instant;
};

// One shard's drained buffer: events in emission order (deterministic for a
// given seed), with the symbol table that resolves them.
struct TraceData {
  std::vector<TraceEvent> events;
  util::InternTable symbols;
  std::uint64_t emitted = 0;  // total emissions, including dropped
  std::uint64_t dropped = 0;  // overwritten by ring wrap-around

  // Exact JSON round trip so shard files carry traces across processes and a
  // multi-process merge stays byte-identical to an in-process one. Symbols
  // are persisted in dense intern order (which preserves them exactly on
  // reload); events are compact 5-tuples [ts_us, dur_us, subsystem, name,
  // kind].
  // ednsm-lint: allow(hygiene-dead-function) — the reference write_json() is held to:
  // StreamedWriter.ShardFileWithTraceAndMetricsMatchesDomReference compares a shard file with
  // ShardFile::to_json(), which embeds this.
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static Result<TraceData> from_json(const util::Json& j);
  // Streams the to_json() layout (shard files), one event at a time.
  void write_json(util::JsonWriter& w) const;
};

class Tracer {
 public:
  using SpanId = std::uint32_t;

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The hot-path guard: a relaxed atomic load, nothing else. Emission sites
  // check this (via the OBS_* macros) before touching any other state.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Start recording into a ring of `capacity` events. Idempotent; capacity
  // changes take effect only from an empty buffer.
  void enable(std::size_t capacity = kDefaultCapacity);

  void instant(std::string_view subsystem, std::string_view name, netsim::SimTime ts);
  void complete(std::string_view subsystem, std::string_view name, netsim::SimTime begin,
                netsim::SimDuration dur);

  // Low-level span protocol for the OBS_SPAN guard (see header comment; the
  // obs-span-balance lint rule rejects direct calls outside src/obs).
  // begin_span returns 0 when tracing is disabled; end_span(0, ...) is a
  // no-op, so a guard built while disabled costs nothing at destruction.
  [[nodiscard]] SpanId begin_span(std::string_view subsystem, std::string_view name,
                                  netsim::SimTime ts);
  void end_span(SpanId id, netsim::SimTime ts);

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  // ednsm-lint: allow(hygiene-dead-function) — Tracer.RecordsInstantAndComplete,
  // Tracer.RingDropsOldest and Tracer.DisabledRecordsNothing check the ring's fill level.
  [[nodiscard]] std::size_t buffered() const noexcept { return ring_.size(); }

  // Move the buffered events out in chronological emission order (oldest
  // surviving event first) and reset the buffer. The enabled flag and
  // capacity are untouched, so recording can continue afterwards.
  [[nodiscard]] TraceData drain();

 private:
  struct OpenSpan {
    util::InternTable::Symbol subsystem = 0;
    util::InternTable::Symbol name = 0;
    netsim::SimTime begin{0};
  };

  void push(const TraceEvent& e);

  std::atomic<bool> enabled_{false};
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next overwrite position once the ring is full
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  util::InternTable symbols_;
  std::vector<OpenSpan> open_;
  std::vector<SpanId> free_ids_;
};

// RAII span guard for the OBS_SPAN macro. `Clock` is anything exposing
// `obs::Tracer* tracer()` and `netsim::SimTime now()` — in practice the
// netsim::EventQueue, so every layer holding a queue reference can trace
// without extra plumbing.
template <typename Clock>
class SpanGuard {
 public:
  SpanGuard(Clock& clk, std::string_view subsystem, std::string_view name) : clk_(clk) {
    Tracer* t = clk_.tracer();
    if (t != nullptr && t->enabled()) {
      tracer_ = t;
      id_ = t->begin_span(subsystem, name, clk_.now());
    }
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end_span(id_, clk_.now());
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Clock& clk_;
  Tracer* tracer_ = nullptr;
  Tracer::SpanId id_ = 0;
};

// Shard-merged trace. Shards are appended in spec vantage order (the same
// canonical order the record merge uses), each becoming one Chrome "thread",
// so the serialized stream is independent of how many workers ran them.
class MergedTrace {
 public:
  void add_shard(std::string label, TraceData data);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;

  // Chrome trace-event JSON (JSON-array-of-objects under "traceEvents";
  // loadable by chrome://tracing and Perfetto). `subsystem_filter` keeps only
  // events whose subsystem ("cat") matches; empty keeps everything. Output is
  // deterministic: fixed key order, integer microsecond timestamps. Both
  // forms write the same bytes; the sink form hands them over in chunks of
  // util::JsonWriter::kChunkBytes or more (e.g. to a util::AtomicFileWriter),
  // so the document never exists as one string.
  void write_chrome_json(const std::function<void(std::string_view)>& sink,
                         std::string_view subsystem_filter = {}) const;
  [[nodiscard]] std::string chrome_json(std::string_view subsystem_filter = {}) const;

 private:
  struct Shard {
    std::string label;
    TraceData data;
  };

  // Formats into `out`. With a sink, hands `out` over and clears it whenever
  // a chunk is pending, and at the end; without one, reserves the exact
  // document size first, so `out` is allocated once.
  void format_chrome(std::string& out, std::string_view subsystem_filter,
                     const std::function<void(std::string_view)>* sink) const;

  std::vector<Shard> shards_;
};

}  // namespace ednsm::obs

// Emission macros. `clk` is a Clock in the SpanGuard sense (normally the
// EventQueue). All three compile to a pointer null-check plus one relaxed
// atomic load when tracing is off.
#define EDNSM_OBS_CONCAT_IMPL(a, b) a##b
#define EDNSM_OBS_CONCAT(a, b) EDNSM_OBS_CONCAT_IMPL(a, b)

// RAII span over the enclosing scope (duration in SimTime; zero within one
// event callback — see header comment).
#define OBS_SPAN(clk, subsystem, name)                                              \
  const ::ednsm::obs::SpanGuard EDNSM_OBS_CONCAT(obs_span_guard_, __LINE__) {       \
    (clk), (subsystem), (name)                                                      \
  }

// Point event at the clock's current SimTime.
#define OBS_EVENT(clk, subsystem, name)                                             \
  do {                                                                              \
    ::ednsm::obs::Tracer* ednsm_obs_t = (clk).tracer();                             \
    if (ednsm_obs_t != nullptr && ednsm_obs_t->enabled()) {                         \
      ednsm_obs_t->instant((subsystem), (name), (clk).now());                       \
    }                                                                               \
  } while (false)

// Interval event from an already-stamped (begin, dur) pair — the idiom for
// phases that span simulated time across callbacks (handshakes, exchanges).
#define OBS_COMPLETE(clk, subsystem, name, begin, dur)                              \
  do {                                                                              \
    ::ednsm::obs::Tracer* ednsm_obs_t = (clk).tracer();                             \
    if (ednsm_obs_t != nullptr && ednsm_obs_t->enabled()) {                         \
      ednsm_obs_t->complete((subsystem), (name), (begin), (dur));                   \
    }                                                                               \
  } while (false)
