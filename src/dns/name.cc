#include "dns/name.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace ednsm::dns {

namespace {

bool valid_label_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '_';
}

char ascii_lower(char c) noexcept {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

// Canonical lowercase suffix key: "labelN.labelN+1...." used by the compressor.
std::string suffix_key(const std::vector<std::string>& labels, std::size_t from) {
  std::string key;
  for (std::size_t i = from; i < labels.size(); ++i) {
    for (char c : labels[i]) key.push_back(ascii_lower(c));
    key.push_back('.');
  }
  return key;
}

}  // namespace

Result<Name> Name::parse(std::string_view text) {
  Name name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return Err{std::string("name: empty label")};

  for (std::string_view label : util::split(text, '.')) {
    if (label.empty()) return Err{std::string("name: empty label")};
    if (label.size() > kMaxLabelLength) return Err{std::string("name: label exceeds 63 octets")};
    for (char c : label) {
      if (!valid_label_char(c)) {
        return Err{std::string("name: invalid character in label '") + std::string(label) + "'"};
      }
    }
    name.labels_.emplace_back(label);
  }
  if (name.wire_length() > kMaxNameWireLength) {
    return Err{std::string("name: exceeds 255 octets")};
  }
  return name;
}

std::size_t Name::wire_length() const noexcept {
  std::size_t len = 1;  // terminating root octet
  for (const std::string& l : labels_) len += 1 + l.size();
  return len;
}

std::string Name::to_string() const {
  if (labels_.empty()) return ".";
  return util::join(labels_, ".");
}

bool Name::operator==(const Name& other) const noexcept {
  if (labels_.size() != other.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (!util::iequals(labels_[i], other.labels_[i])) return false;
  }
  return true;
}

std::size_t Name::hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& l : labels_) {
    for (char c : l) {
      h ^= static_cast<std::uint8_t>(ascii_lower(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // label separator
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

void NameCompressor::write(WireWriter& w, const Name& name) {
  const auto& labels = name.labels();
  // One lowercased key per name; each suffix key is a view into it (labels
  // never contain '.', Name::parse splits on it, so '.' is unambiguous).
  std::string full = suffix_key(labels, 0);
  std::size_t start = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string_view key = std::string_view(full).substr(start);
    start += labels[i].size() + 1;
    const auto it = suffix_offsets_.find(key);
    if (it != suffix_offsets_.end()) {
      w.u16(static_cast<std::uint16_t>(0xC000 | it->second));
      return;
    }
    if (w.size() <= 0x3FFF) {
      suffix_offsets_.emplace(key, static_cast<std::uint16_t>(w.size()));
    }
    w.u8(static_cast<std::uint8_t>(labels[i].size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(labels[i].data()),
                      labels[i].size()));
  }
  w.u8(0);  // root
}

Result<Name> read_name(WireReader& r) {
  Name out;
  std::vector<std::string> labels;
  std::size_t decoded_len = 1;
  int hops = 0;
  // Cursor to restore after following pointers: the name "consumes" bytes only
  // up to (and including) the first pointer or the terminating root octet.
  std::size_t resume = 0;
  bool jumped = false;
  std::size_t min_target = r.offset();  // pointers must go strictly backwards

  while (true) {
    auto len_r = r.u8();
    if (!len_r) return Err{len_r.error()};
    const std::uint8_t len = len_r.value();

    if ((len & 0xC0) == 0xC0) {  // compression pointer
      auto lo_r = r.u8();
      if (!lo_r) return Err{lo_r.error()};
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | lo_r.value();
      if (!jumped) {
        resume = r.offset();
        jumped = true;
      }
      if (++hops > kMaxPointerHops) return Err{std::string("name: pointer hop limit")};
      if (target >= min_target) return Err{std::string("name: forward/looping pointer")};
      min_target = target;
      if (auto s = r.seek(target); !s) return Err{s.error()};
      continue;
    }
    if ((len & 0xC0) != 0) return Err{std::string("name: reserved label type")};
    if (len == 0) break;  // root: name complete

    auto data_r = r.view(len);
    if (!data_r) return Err{data_r.error()};
    decoded_len += 1 + static_cast<std::size_t>(len);
    if (decoded_len > kMaxNameWireLength) return Err{std::string("name: exceeds 255 octets")};
    labels.emplace_back(reinterpret_cast<const char*>(data_r.value().data()),
                        data_r.value().size());
  }

  if (jumped) {
    if (auto s = r.seek(resume); !s) return Err{s.error()};
  }

  // Enforce the same charset rules as parse() directly on the decoded labels
  // (wire labels are already 1..63 octets and within the 255-octet bound, so
  // only the character check remains) rather than round-tripping through
  // presentation format, which re-split and re-allocated every label.
  for (const std::string& label : labels) {
    for (char c : label) {
      if (!valid_label_char(c)) {
        return Err{std::string("name: invalid character in label '") + label + "'"};
      }
    }
  }
  out.labels_ = std::move(labels);
  return out;
}

}  // namespace ednsm::dns
