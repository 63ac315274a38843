// Oblivious DoH (RFC 9230): a relay decouples client identity from query
// content. The client encapsulates its DNS query for a *target* resolver and
// sends it to a *relay* over HTTPS; the relay forwards to the target without
// learning the (encrypted) query, and the target answers without learning the
// client's address.
//
// The Appendix A.2 population contains four ODoH targets
// (odoh-target*.alekberg.net), whose response-time penalty relative to their
// pings is visible in the paper's Figure 1 — this module implements the
// actual relay message path that produces that penalty.
//
// Simulation note: encapsulation is structural (target name + payload framing
// + HPKE-sized padding), not cryptographic, consistent with the TLS layer.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "http/doh_media.h"
#include "netsim/network.h"
#include "transport/pool.h"
#include "transport/tcp.h"
#include "transport/tls.h"
#include "util/result.h"

namespace ednsm::resolver {

inline constexpr std::string_view kObliviousMediaType = "application/oblivious-dns-message";
inline constexpr std::size_t kHpkeOverhead = 48;  // ~KEM ct + AEAD tag, for sizing realism

// The encapsulated message the relay forwards without inspecting.
struct ObliviousMessage {
  std::string target_hostname;
  util::Bytes payload;  // (sealed) DNS message

  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static Result<ObliviousMessage> decode(std::span<const std::uint8_t> wire);
};

struct RelayStats {
  std::uint64_t forwarded = 0;
  std::uint64_t target_failures = 0;
  std::uint64_t malformed = 0;
};

// An ODoH relay host: terminates client HTTPS, forwards the sealed query to
// the named target's DoH endpoint, and relays the sealed answer back.
class OdohRelay {
 public:
  // Resolves a target hostname to an address from the relay's location
  // (typically ResolverFleet::address_for bound to the relay's coordinates).
  using TargetResolver = std::function<std::optional<netsim::IpAddr>(std::string_view)>;

  OdohRelay(netsim::Network& net, std::string hostname, geo::GeoPoint location,
            TargetResolver resolve_target);
  ~OdohRelay();

  OdohRelay(const OdohRelay&) = delete;
  OdohRelay& operator=(const OdohRelay&) = delete;

  [[nodiscard]] netsim::IpAddr address() const noexcept { return addr_; }
  [[nodiscard]] const std::string& hostname() const noexcept { return hostname_; }
  [[nodiscard]] const RelayStats& stats() const noexcept { return stats_; }

 private:
  struct ConnState {
    transport::TlsServerSession tls;
    ConnState(netsim::EventQueue& q, netsim::Rng& rng, transport::TcpServerConn& conn,
              transport::ServerHandshakeConfig cfg)
        : tls(q, rng, conn, std::move(cfg)) {}
  };

  void handle_request(const std::shared_ptr<ConnState>& st, util::Bytes data);

  netsim::Network& net_;
  std::string hostname_;
  netsim::IpAddr addr_;
  TargetResolver resolve_target_;
  std::unique_ptr<transport::TcpListener> listener_;
  // Hashed (never iterated): an ordered pointer key would order entries by
  // allocation address, which differs across runs.
  std::unordered_map<const transport::TcpServerConn*, std::shared_ptr<ConnState>> conns_;
  // The relay's own upstream connections to targets (reused across clients —
  // this reuse is why production ODoH adds less than 2x the direct latency).
  std::unique_ptr<transport::ConnectionPool> upstream_pool_;
  RelayStats stats_;
};

}  // namespace ednsm::resolver
