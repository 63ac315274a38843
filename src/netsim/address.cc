#include "netsim/address.h"

namespace ednsm::netsim {

IpAddr AddressAllocator::next() {
  // 10.0.0.0/8, skipping .0 and .255 in the last octet for realism.
  ++counter_;
  std::uint32_t host = counter_;
  std::uint32_t last = host % 254 + 1;       // 1..254
  std::uint32_t rest = host / 254;
  return IpAddr{(10u << 24) | ((rest & 0xffff) << 8) | last};
}

}  // namespace ednsm::netsim
