#include "dns/types.h"

namespace ednsm::dns {

std::string_view to_string(Rcode r) noexcept {
  switch (r) {
    case Rcode::NoError: return "NOERROR";
    case Rcode::FormErr: return "FORMERR";
    case Rcode::ServFail: return "SERVFAIL";
    case Rcode::NxDomain: return "NXDOMAIN";
    case Rcode::NotImp: return "NOTIMP";
    case Rcode::Refused: return "REFUSED";
  }
  return "RCODE?";
}

}  // namespace ednsm::dns
