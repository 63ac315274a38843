#include "monitor/events.h"

#include <algorithm>
#include <tuple>

namespace ednsm::monitor {

namespace {

// Emit one event per maximal run of `state` epochs inside a group.
void emit_runs(const std::vector<const SloSample*>& group, std::string_view state,
               std::string_view type, std::vector<MonitorEvent>& out) {
  std::size_t i = 0;
  while (i < group.size()) {
    if (group[i]->state != state) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < group.size() && group[j + 1]->state == state &&
           group[j + 1]->epoch == group[j]->epoch + 1) {
      ++j;
    }
    MonitorEvent ev;
    ev.type = std::string(type);
    ev.vantage = group[i]->vantage;
    ev.resolver = group[i]->resolver;
    ev.protocol = group[i]->protocol;
    ev.start_epoch = group[i]->epoch;
    ev.end_epoch = group[j]->epoch;
    out.push_back(std::move(ev));
    i = j + 1;
  }
}

}  // namespace

util::Json MonitorEvent::to_json() const {
  util::JsonObject o;
  o["type"] = type;
  o["vantage"] = vantage;
  o["resolver"] = resolver;
  o["protocol"] = protocol;
  o["start_epoch"] = start_epoch;
  o["end_epoch"] = end_epoch;
  if (transitions != 0) o["transitions"] = transitions;
  return util::Json(std::move(o));
}

Result<MonitorEvent> MonitorEvent::from_json(const util::Json& j) {
  if (!j.is_object()) return Err{std::string("monitor event: not an object")};
  MonitorEvent e;
  if (!j.at("type").is_string() || !j.at("vantage").is_string() ||
      !j.at("resolver").is_string() || !j.at("protocol").is_string() ||
      !j.at("start_epoch").is_number() || !j.at("end_epoch").is_number()) {
    return Err{std::string("monitor event: missing required fields")};
  }
  e.type = j.at("type").as_string();
  e.vantage = j.at("vantage").as_string();
  e.resolver = j.at("resolver").as_string();
  e.protocol = j.at("protocol").as_string();
  e.start_epoch = static_cast<int>(j.at("start_epoch").as_number());
  e.end_epoch = static_cast<int>(j.at("end_epoch").as_number());
  if (j.at("transitions").is_number()) {
    e.transitions = static_cast<int>(j.at("transitions").as_number());
  }
  return e;
}

std::vector<MonitorEvent> detect_events(const std::vector<SloSample>& samples,
                                        const SloConfig& config) {
  std::vector<MonitorEvent> out;

  // Walk maximal (vantage, resolver, protocol) groups; evaluate_slos emits
  // them contiguously with ascending epochs.
  std::size_t start = 0;
  while (start < samples.size()) {
    std::size_t end = start;
    while (end + 1 < samples.size() && samples[end + 1].vantage == samples[start].vantage &&
           samples[end + 1].resolver == samples[start].resolver &&
           samples[end + 1].protocol == samples[start].protocol) {
      ++end;
    }
    std::vector<const SloSample*> group;
    group.reserve(end - start + 1);
    for (std::size_t i = start; i <= end; ++i) group.push_back(&samples[i]);

    emit_runs(group, "outage", "outage", out);
    emit_runs(group, "degraded", "degradation", out);

    int transitions = 0;
    int first_transition = 0;
    int last_transition = 0;
    for (std::size_t i = 1; i < group.size(); ++i) {
      if (group[i]->state != group[i - 1]->state) {
        if (transitions == 0) first_transition = group[i]->epoch;
        last_transition = group[i]->epoch;
        ++transitions;
      }
    }
    if (transitions >= config.flap_transitions) {
      MonitorEvent ev;
      ev.type = "flap";
      ev.vantage = group.front()->vantage;
      ev.resolver = group.front()->resolver;
      ev.protocol = group.front()->protocol;
      ev.start_epoch = first_transition;
      ev.end_epoch = last_transition;
      ev.transitions = transitions;
      out.push_back(std::move(ev));
    }

    start = end + 1;
  }

  std::sort(out.begin(), out.end(), [](const MonitorEvent& a, const MonitorEvent& b) {
    return std::tie(a.vantage, a.resolver, a.protocol, a.start_epoch, a.type) <
           std::tie(b.vantage, b.resolver, b.protocol, b.start_epoch, b.type);
  });
  return out;
}

util::Json events_to_json(const std::vector<MonitorEvent>& events) {
  util::JsonArray arr;
  arr.reserve(events.size());
  for (const MonitorEvent& e : events) arr.push_back(e.to_json());
  return util::Json(std::move(arr));
}

}  // namespace ednsm::monitor
