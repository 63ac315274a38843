// DNS protocol enumerations (RFC 1035, RFC 6891, RFC 8484), and the string
// form of Rcode. Values are the on-the-wire code points.
#pragma once

#include <cstdint>
#include <string_view>

namespace ednsm::dns {

enum class RecordType : std::uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  PTR = 12,
  MX = 15,
  TXT = 16,
  AAAA = 28,
  SRV = 33,
  OPT = 41,    // EDNS0 pseudo-RR (RFC 6891)
  SVCB = 64,
  HTTPS = 65,
  ANY = 255,
};

enum class RecordClass : std::uint16_t {
  IN = 1,
  CH = 3,
  ANY = 255,
};

enum class Opcode : std::uint8_t {
  Query = 0,
  IQuery = 1,
  Status = 2,
  Notify = 4,
  Update = 5,
};

enum class Rcode : std::uint8_t {
  NoError = 0,
  FormErr = 1,
  ServFail = 2,
  NxDomain = 3,
  NotImp = 4,
  Refused = 5,
};

[[nodiscard]] std::string_view to_string(Rcode r) noexcept;

}  // namespace ednsm::dns
