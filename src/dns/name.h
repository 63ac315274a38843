// DNS domain names (RFC 1035 §3.1) with full message compression support.
//
// A Name is a validated sequence of labels. Construction from presentation
// format ("dns.google") enforces the RFC limits: labels 1..63 octets, total
// encoded length <= 255, LDH-ish charset (we additionally allow '_' for
// service labels). Comparison is case-insensitive per RFC 4343.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/wire.h"
#include "util/result.h"

namespace ednsm::dns {

class Name {
 public:
  // The root name (zero labels, encodes as a single 0x00 octet).
  Name() = default;

  // Parse presentation format. A single trailing dot is accepted
  // ("example.com." == "example.com"); empty string and "." mean the root.
  [[nodiscard]] static Result<Name> parse(std::string_view text);

  [[nodiscard]] const std::vector<std::string>& labels() const noexcept { return labels_; }
  [[nodiscard]] bool is_root() const noexcept { return labels_.empty(); }

  // Encoded wire length in octets (sum of label lengths + length octets + root).
  [[nodiscard]] std::size_t wire_length() const noexcept;

  // Presentation format without trailing dot; "." for the root.
  [[nodiscard]] std::string to_string() const;

  // Case-insensitive equality and hashing (RFC 4343).
  [[nodiscard]] bool operator==(const Name& other) const noexcept;
  [[nodiscard]] std::size_t hash() const noexcept;

 private:
  std::vector<std::string> labels_;

  // read_name() builds names straight from decoded wire labels (validated
  // in place against the same rules as parse()) without a presentation-
  // format round trip.
  friend Result<Name> read_name(WireReader& r);
};

struct NameHash {
  std::size_t operator()(const Name& n) const noexcept { return n.hash(); }
};

// Tracks label-suffix offsets within one message so later names can emit
// compression pointers (RFC 1035 §4.1.4). One compressor per message.
class NameCompressor {
 public:
  // Append `name` to `w`, emitting a pointer to an earlier occurrence of the
  // longest matching suffix when one exists, and remembering the offsets of
  // newly written suffixes (only offsets < 0x3FFF are addressable).
  void write(WireWriter& w, const Name& name);

 private:
  // Transparent hashing so suffix lookups take string_views into one
  // per-name key buffer instead of allocating a std::string per suffix.
  struct SuffixHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SuffixEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept { return a == b; }
  };
  std::unordered_map<std::string, std::uint16_t, SuffixHash, SuffixEq> suffix_offsets_;
};

// Decode a (possibly compressed) name starting at the reader's cursor.
// Enforces: pointers must target earlier offsets (no loops), at most
// kMaxPointerHops hops, decoded length within the 255-octet bound.
[[nodiscard]] Result<Name> read_name(WireReader& r);

inline constexpr int kMaxPointerHops = 32;
inline constexpr std::size_t kMaxNameWireLength = 255;
inline constexpr std::size_t kMaxLabelLength = 63;

}  // namespace ednsm::dns
