#include "client/session.h"

#include "client/do53.h"
#include "client/doh.h"
#include "client/doq.h"
#include "client/dot.h"
#include "client/odoh.h"

namespace ednsm::client {

SessionFactory::SessionFactory(netsim::Network& net, transport::ConnectionPool& pool)
    : net_(net), pool_(pool) {}

std::unique_ptr<ResolverSession> SessionFactory::create(Protocol protocol, SessionTarget target,
                                                        QueryOptions options) const {
  switch (protocol) {
    case Protocol::Do53:
      return std::make_unique<Do53Client>(net_, pool_.local_ip(), std::move(target), options);
    case Protocol::DoT:
      return std::make_unique<DotClient>(net_, pool_, std::move(target), options);
    case Protocol::DoH:
      return std::make_unique<DohClient>(net_, pool_, std::move(target), options);
    case Protocol::DoQ:
      return std::make_unique<DoqClient>(net_, pool_, std::move(target), options);
    case Protocol::ODoH:
      return std::make_unique<OdohClient>(net_, pool_, std::move(target), options);
  }
  return nullptr;  // unreachable for valid enum values
}

}  // namespace ednsm::client
