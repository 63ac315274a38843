// Synthetic addressing for simulated hosts. Addresses are IPv4-shaped for
// familiarity; the simulator assigns them from a private-range pool.
#pragma once

#include <cstdint>
#include <functional>

namespace ednsm::netsim {

struct IpAddr {
  std::uint32_t value = 0;  // host byte order

  [[nodiscard]] bool operator==(const IpAddr&) const = default;
  [[nodiscard]] auto operator<=>(const IpAddr&) const = default;
};

struct Endpoint {
  IpAddr ip;
  std::uint16_t port = 0;

  [[nodiscard]] bool operator==(const Endpoint&) const = default;
  [[nodiscard]] auto operator<=>(const Endpoint&) const = default;
};

struct IpAddrHash {
  std::size_t operator()(const IpAddr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value);
  }
};

struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(e.ip.value) << 16) | e.port);
  }
};

// Well-known simulated ports (mirroring the real protocol registrations).
// DoQ really shares port 853 with DoT (UDP vs TCP); the simulated address
// space has no transport-protocol dimension, so DoQ gets its own number.
inline constexpr std::uint16_t kPortDns = 53;
inline constexpr std::uint16_t kPortHttps = 443;  // DoH
inline constexpr std::uint16_t kPortDot = 853;
inline constexpr std::uint16_t kPortDoq = 8853;

// Hands out addresses 10.0.0.1, 10.0.0.2, ... deterministically.
class AddressAllocator {
 public:
  [[nodiscard]] IpAddr next();

 private:
  std::uint32_t counter_ = 0;
};

}  // namespace ednsm::netsim
