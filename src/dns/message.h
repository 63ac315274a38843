// DNS message model and codec (RFC 1035 §4) with typed RDATA.
//
// Message::encode() produces a compressed wire image; Message::decode()
// accepts arbitrary untrusted bytes and fails with a Result error on any
// malformation. Round-tripping a message through encode/decode is identity
// up to name case and compression layout.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dns/edns.h"
#include "dns/name.h"
#include "dns/types.h"
#include "dns/wire.h"
#include "util/result.h"

namespace ednsm::dns {

// ---------------------------------------------------------------- header ---

struct Header {
  std::uint16_t id = 0;
  bool qr = false;   // response flag
  Opcode opcode = Opcode::Query;
  bool aa = false;   // authoritative answer
  bool tc = false;   // truncated
  bool rd = true;    // recursion desired
  bool ra = false;   // recursion available
  bool ad = false;   // authentic data (RFC 4035)
  bool cd = false;   // checking disabled
  Rcode rcode = Rcode::NoError;

  [[nodiscard]] bool operator==(const Header&) const = default;
};

// ----------------------------------------------------------------- rdata ---

struct ARecord {
  std::array<std::uint8_t, 4> address{};
  [[nodiscard]] bool operator==(const ARecord&) const = default;
};

struct AaaaRecord {
  std::array<std::uint8_t, 16> address{};
  [[nodiscard]] bool operator==(const AaaaRecord&) const = default;
};

struct CnameRecord {
  Name target;
  [[nodiscard]] bool operator==(const CnameRecord&) const = default;
};

struct NsRecord {
  Name nameserver;
  [[nodiscard]] bool operator==(const NsRecord&) const = default;
};

struct PtrRecord {
  Name target;
  [[nodiscard]] bool operator==(const PtrRecord&) const = default;
};

struct MxRecord {
  std::uint16_t preference = 0;
  Name exchange;
  [[nodiscard]] bool operator==(const MxRecord&) const = default;
};

struct TxtRecord {
  std::vector<std::string> strings;  // each element <= 255 octets
  [[nodiscard]] bool operator==(const TxtRecord&) const = default;
};

struct SoaRecord {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
  [[nodiscard]] bool operator==(const SoaRecord&) const = default;
};

struct SrvRecord {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  Name target;
  [[nodiscard]] bool operator==(const SrvRecord&) const = default;
};

// Types we do not model structurally keep their raw RDATA.
struct OpaqueRdata {
  util::Bytes data;
  [[nodiscard]] bool operator==(const OpaqueRdata&) const = default;
};

using Rdata = std::variant<ARecord, AaaaRecord, CnameRecord, NsRecord, PtrRecord,
                           MxRecord, TxtRecord, SoaRecord, SrvRecord, OpaqueRdata>;

// -------------------------------------------------------------- sections ---

struct Question {
  Name qname;
  RecordType qtype = RecordType::A;
  RecordClass qclass = RecordClass::IN;
  [[nodiscard]] bool operator==(const Question&) const = default;
};

struct ResourceRecord {
  Name name;
  RecordType type = RecordType::A;
  RecordClass rclass = RecordClass::IN;
  std::uint32_t ttl = 0;
  Rdata rdata = OpaqueRdata{};
  [[nodiscard]] bool operator==(const ResourceRecord&) const = default;
};

// --------------------------------------------------------------- message ---

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;  // excluding the OPT pseudo-RR
  std::optional<EdnsInfo> edns;

  [[nodiscard]] bool operator==(const Message&) const = default;

  // Encode with name compression. If `pad_block` > 0 and EDNS is present,
  // a Padding option is appended so the output size is a multiple of it.
  [[nodiscard]] util::Bytes encode(std::size_t pad_block = 0) const;

  [[nodiscard]] static Result<Message> decode(std::span<const std::uint8_t> wire);
};

// Convenience builders -------------------------------------------------------

// A standard recursive query for (name, type) with EDNS0 and a fresh id.
[[nodiscard]] Message make_query(std::uint16_t id, const Name& qname, RecordType qtype,
                                 bool dnssec_ok = false);

// A response echoing `query`'s id and question with the given rcode/answers.
[[nodiscard]] Message make_response(const Message& query, Rcode rcode,
                                    std::vector<ResourceRecord> answers);

}  // namespace ednsm::dns
