#include "obs/trace.h"

#include <charconv>
#include <optional>

namespace ednsm::obs {

namespace {

// Appends `s` as a quoted JSON string with the trace's own escapes: quote,
// backslash, \n, \r and \t by name, and every other control byte as \u00XX
// (\b and \f too, which util::json_escape spells \b and \f). Runs of plain
// bytes are copied whole.
void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
  out.push_back('"');
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

template <typename Int>
std::size_t int_width(Int v) {
  char buf[24];
  return static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
}

// The fixed pieces of one event and of the footer; ShardText::event_size()
// counts what ShardText::append_event() writes.
constexpr std::string_view kCompleteHead = ",\n{\"ph\":\"X\",\"name\":";
constexpr std::string_view kInstantHead = ",\n{\"ph\":\"i\",\"name\":";
constexpr std::string_view kCat = ",\"cat\":";
constexpr std::string_view kTs = ",\"ts\":";
constexpr std::string_view kDur = ",\"dur\":";
constexpr std::string_view kThreadScope = ",\"s\":\"t\"";
static_assert(kCompleteHead.size() == kInstantHead.size());
constexpr std::string_view kFooterHead =
    "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":";
constexpr std::string_view kFooterTail = "}}\n";

// One shard as the writer sees it: every symbol escaped and quoted once,
// the closing `,"pid":0,"tid":N}`, and the subsystem filter as a symbol.
struct ShardText {
  std::vector<std::string> quoted;
  std::string tail;
  bool filtered = false;                         // keep only `only`'s events
  std::optional<util::InternTable::Symbol> only;  // unset: the shard has none

  ShardText(const TraceData& data, std::size_t tid, std::string_view subsystem_filter)
      : filtered(!subsystem_filter.empty()) {
    if (filtered) only = data.symbols.find(subsystem_filter);
    quoted.resize(data.symbols.size());
    for (util::InternTable::Symbol sym = 0; sym < data.symbols.size(); ++sym) {
      append_quoted(quoted[sym], data.symbols.name(sym));
    }
    tail.assign(",\"pid\":0,\"tid\":");
    append_int(tail, tid);
    tail.push_back('}');
  }

  [[nodiscard]] bool keeps(const TraceEvent& e) const {
    return !filtered || (only && e.subsystem == *only);
  }

  [[nodiscard]] std::size_t event_size(const TraceEvent& e) const {
    const bool complete = e.kind == EventKind::Complete;
    return kCompleteHead.size() + quoted.at(e.name).size() + kCat.size() +
           quoted.at(e.subsystem).size() + kTs.size() + int_width(e.ts.count()) +
           (complete ? kDur.size() + int_width(e.dur.count()) : kThreadScope.size()) +
           tail.size();
  }

  void append_event(std::string& out, const TraceEvent& e) const {
    const bool complete = e.kind == EventKind::Complete;
    out.append(complete ? kCompleteHead : kInstantHead);
    out.append(quoted.at(e.name));
    out.append(kCat);
    out.append(quoted.at(e.subsystem));
    out.append(kTs);
    append_int(out, e.ts.count());
    if (complete) {
      out.append(kDur);
      append_int(out, e.dur.count());
    } else {
      out.append(kThreadScope);
    }
    out.append(tail);
  }
};

}  // namespace

void Tracer::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  if (ring_.empty()) {
    capacity_ = capacity;
    ring_.reserve(capacity_);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::push(const TraceEvent& e) {
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void Tracer::instant(std::string_view subsystem, std::string_view name, netsim::SimTime ts) {
  if (!enabled()) return;
  push(TraceEvent{ts, netsim::kZeroDuration, symbols_.intern(subsystem),
                  symbols_.intern(name), EventKind::Instant});
}

void Tracer::complete(std::string_view subsystem, std::string_view name, netsim::SimTime begin,
                      netsim::SimDuration dur) {
  if (!enabled()) return;
  if (dur < netsim::kZeroDuration) dur = netsim::kZeroDuration;
  push(TraceEvent{begin, dur, symbols_.intern(subsystem), symbols_.intern(name),
                  EventKind::Complete});
}

Tracer::SpanId Tracer::begin_span(std::string_view subsystem, std::string_view name,
                                  netsim::SimTime ts) {
  if (!enabled()) return 0;
  const OpenSpan span{symbols_.intern(subsystem), symbols_.intern(name), ts};
  if (!free_ids_.empty()) {
    const SpanId id = free_ids_.back();
    free_ids_.pop_back();
    open_[id - 1] = span;
    return id;
  }
  open_.push_back(span);
  return static_cast<SpanId>(open_.size());
}

void Tracer::end_span(SpanId id, netsim::SimTime ts) {
  if (id == 0 || id > open_.size()) return;
  const OpenSpan& span = open_[id - 1];
  push(TraceEvent{span.begin, ts - span.begin, span.subsystem, span.name,
                  EventKind::Complete});
  free_ids_.push_back(id);
}

TraceData Tracer::drain() {
  TraceData out;
  out.symbols = symbols_;
  out.emitted = emitted_;
  out.dropped = dropped_;
  out.events.reserve(ring_.size());
  // Chronological emission order: the ring's oldest surviving event sits at
  // head_ once the buffer has wrapped, at index 0 otherwise.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.events.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  ring_.clear();
  head_ = 0;
  return out;
}

util::Json TraceData::to_json() const {
  util::JsonObject o;
  util::JsonArray syms;
  syms.reserve(symbols.size());
  for (util::InternTable::Symbol s = 0; s < symbols.size(); ++s) {
    syms.emplace_back(symbols.name(s));
  }
  o["symbols"] = util::Json(std::move(syms));
  o["emitted"] = emitted;
  o["dropped"] = dropped;
  util::JsonArray evs;
  evs.reserve(events.size());
  for (const TraceEvent& e : events) {
    util::JsonArray tuple;
    tuple.reserve(5);
    tuple.emplace_back(static_cast<std::int64_t>(e.ts.count()));
    tuple.emplace_back(static_cast<std::int64_t>(e.dur.count()));
    tuple.emplace_back(static_cast<std::uint64_t>(e.subsystem));
    tuple.emplace_back(static_cast<std::uint64_t>(e.name));
    tuple.emplace_back(static_cast<std::uint64_t>(e.kind == EventKind::Complete ? 1 : 0));
    evs.emplace_back(std::move(tuple));
  }
  o["events"] = util::Json(std::move(evs));
  return util::Json(std::move(o));
}

void TraceData::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("dropped");
  w.number(static_cast<double>(dropped));
  w.key("emitted");
  w.number(static_cast<double>(emitted));
  w.key("events");
  w.begin_array();
  for (const TraceEvent& e : events) {
    w.begin_array();
    w.number(static_cast<double>(e.ts.count()));
    w.number(static_cast<double>(e.dur.count()));
    w.number(static_cast<double>(e.subsystem));
    w.number(static_cast<double>(e.name));
    w.number(e.kind == EventKind::Complete ? 1 : 0);
    w.end_array();
  }
  w.end_array();
  w.key("symbols");
  w.begin_array();
  for (util::InternTable::Symbol s = 0; s < symbols.size(); ++s) w.string(symbols.name(s));
  w.end_array();
  w.end_object();
}

Result<TraceData> TraceData::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("trace data: not an object")};
  TraceData out;
  if (!j.at("symbols").is_array() || !j.at("events").is_array()) {
    return Err{std::string("trace data: missing symbols/events arrays")};
  }
  for (const util::Json& s : j.at("symbols").as_array()) {
    if (!s.is_string()) return Err{std::string("trace data: symbols must be strings")};
    (void)out.symbols.intern(s.as_string());
  }
  if (j.at("emitted").is_number()) {
    out.emitted = static_cast<std::uint64_t>(j.at("emitted").as_number());
  }
  if (j.at("dropped").is_number()) {
    out.dropped = static_cast<std::uint64_t>(j.at("dropped").as_number());
  }
  out.events.reserve(j.at("events").as_array().size());
  for (const util::Json& e : j.at("events").as_array()) {
    if (!e.is_array() || e.as_array().size() != 5) {
      return Err{std::string("trace data: event must be a 5-tuple")};
    }
    const util::JsonArray& t = e.as_array();
    for (const util::Json& field : t) {
      if (!field.is_number()) return Err{std::string("trace data: event fields must be numbers")};
    }
    TraceEvent ev;
    ev.ts = netsim::SimTime(static_cast<std::int64_t>(t[0].as_number()));
    ev.dur = netsim::SimDuration(static_cast<std::int64_t>(t[1].as_number()));
    ev.subsystem = static_cast<util::InternTable::Symbol>(t[2].as_number());
    ev.name = static_cast<util::InternTable::Symbol>(t[3].as_number());
    ev.kind = t[4].as_number() != 0 ? EventKind::Complete : EventKind::Instant;
    if (ev.subsystem >= out.symbols.size() || ev.name >= out.symbols.size()) {
      return Err{std::string("trace data: event references unknown symbol")};
    }
    out.events.push_back(ev);
  }
  return out;
}

void MergedTrace::add_shard(std::string label, TraceData data) {
  shards_.push_back(Shard{std::move(label), std::move(data)});
}

std::uint64_t MergedTrace::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.data.events.size();
  return n;
}

std::uint64_t MergedTrace::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.data.dropped;
  return n;
}

void MergedTrace::format_chrome(std::string& out, std::string_view subsystem_filter,
                                const std::function<void(std::string_view)>* sink) const {
  out.append("{\"traceEvents\":[\n");
  out.append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
             "\"args\":{\"name\":\"ednsm\"}}");
  std::vector<ShardText> texts;
  texts.reserve(shards_.size());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    out.append(",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":");
    append_int(out, si + 1);
    out.append(",\"args\":{\"name\":");
    append_quoted(out, shards_[si].label);
    out.append("}}");
    texts.emplace_back(shards_[si].data, si + 1, subsystem_filter);
  }
  const std::uint64_t dropped = total_dropped();
  if (sink == nullptr) {
    // The whole document goes into `out`: size it exactly first, so it is
    // allocated once instead of doubling (which peaks at up to twice the
    // document while the last copy is made).
    std::size_t size = out.size() + kFooterHead.size() + int_width(dropped) + kFooterTail.size();
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      for (const TraceEvent& e : shards_[si].data.events) {
        if (texts[si].keeps(e)) size += texts[si].event_size(e);
      }
    }
    out.reserve(size);
  }
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    for (const TraceEvent& e : shards_[si].data.events) {
      if (!texts[si].keeps(e)) continue;
      texts[si].append_event(out, e);
      if (sink != nullptr && out.size() >= util::JsonWriter::kChunkBytes) {
        (*sink)(out);
        out.clear();
      }
    }
  }
  out.append(kFooterHead);
  append_int(out, dropped);
  out.append(kFooterTail);
  if (sink != nullptr) {
    (*sink)(out);
    out.clear();
  }
}

void MergedTrace::write_chrome_json(const std::function<void(std::string_view)>& sink,
                                    std::string_view subsystem_filter) const {
  std::string out;
  out.reserve(util::JsonWriter::kChunkBytes + util::JsonWriter::kChunkBytes / 4);
  format_chrome(out, subsystem_filter, &sink);
}

std::string MergedTrace::chrome_json(std::string_view subsystem_filter) const {
  std::string out;
  format_chrome(out, subsystem_filter, nullptr);
  return out;
}

}  // namespace ednsm::obs
