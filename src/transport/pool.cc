#include "transport/pool.h"

#include "obs/trace.h"

namespace ednsm::transport {

std::string_view to_string(ReusePolicy p) noexcept {
  switch (p) {
    case ReusePolicy::None: return "none";
    case ReusePolicy::Keepalive: return "keepalive";
    case ReusePolicy::TicketResumption: return "ticket-resumption";
  }
  return "?";
}

std::optional<ReusePolicy> reuse_policy_from_string(std::string_view name) noexcept {
  for (ReusePolicy p :
       {ReusePolicy::None, ReusePolicy::Keepalive, ReusePolicy::TicketResumption}) {
    if (name == to_string(p)) return p;
  }
  return std::nullopt;
}

ConnectionPool::ConnectionPool(netsim::Network& net, netsim::IpAddr local_ip)
    : net_(net), local_ip_(local_ip) {}

ConnectionPool::~ConnectionPool() = default;

bool ConnectionPool::has_ticket(const netsim::Endpoint& remote, const std::string& sni) const {
  return tickets_.contains({remote, sni});
}

void ConnectionPool::invalidate(const netsim::Endpoint& remote, const std::string& sni) {
  sessions_.erase({remote, sni});
}

void ConnectionPool::forget_ticket(const netsim::Endpoint& remote, const std::string& sni) {
  tickets_.erase({remote, sni});
}

void ConnectionPool::acquire(const netsim::Endpoint& remote, const std::string& sni,
                             ReusePolicy policy, util::Bytes early_data, AcquireCallback cb) {
  const SessionKey key{remote, sni};
  const netsim::SimTime acquire_started = net_.queue().now();
  ++stats_.acquires;

  if (policy != ReusePolicy::None) {
    const auto it = sessions_.find(key);
    if (it != sessions_.end() && it->second->tls.established()) {
      ++stats_.reused;
      OBS_EVENT(net_.queue(), "transport", "pool-reuse");
      Lease lease;
      lease.tcp = &it->second->tcp;
      lease.tls = &it->second->tls;
      lease.fresh = false;
      lease.protocol_state = &it->second->protocol_state;
      cb(lease);
      return;
    }
  } else {
    // Policy None never re-uses; drop any leftover session for this key.
    sessions_.erase(key);
  }

  // Build a fresh session.
  const netsim::Endpoint local{local_ip_, net_.ephemeral_port(local_ip_)};
  auto session = std::make_unique<Session>(net_, local, remote, next_conn_id_++,
                                           TlsClientConfig{sni});
  Session* raw = session.get();
  sessions_[key] = std::move(session);

  std::optional<SessionTicket> ticket;
  TlsMode mode = TlsMode::Full;
  if (policy == ReusePolicy::TicketResumption) {
    const auto tk = tickets_.find(key);
    if (tk != tickets_.end()) {
      ticket = tk->second;
      mode = early_data.empty() ? TlsMode::Resume : TlsMode::EarlyData;
    }
  }

  raw->tcp.connect([this, key, raw, mode, ticket, acquire_started,
                    early_data = std::move(early_data),
                    cb = std::move(cb)](Result<void> connected) mutable {
    if (!connected) {
      ++stats_.handshake_failures;
      sessions_.erase(key);
      cb(Err{connected.error()});
      return;
    }
    raw->tls.handshake(
        mode, ticket, std::move(early_data),
        [this, key, raw, mode, acquire_started, cb = std::move(cb)](Result<TlsHandshakeInfo> hs) {
          if (!hs) {
            ++stats_.handshake_failures;
            sessions_.erase(key);
            cb(Err{hs.error()});
            return;
          }
          if (hs.value().ticket.has_value()) {
            tickets_[key] = *hs.value().ticket;
          }
          Lease lease;
          lease.tcp = &raw->tcp;
          lease.tls = &raw->tls;
          lease.fresh = true;
          lease.protocol_state = &raw->protocol_state;
          lease.mode = mode;
          lease.early_data_accepted = hs.value().early_data_accepted;
          lease.tcp_handshake = raw->tcp.handshake_duration();
          lease.tls_handshake = raw->tls.handshake_duration();
          const netsim::SimDuration setup = net_.queue().now() - acquire_started;
          const netsim::SimDuration handshakes = lease.tcp_handshake + lease.tls_handshake;
          lease.wait_in_pool =
              setup > handshakes ? setup - handshakes : netsim::SimDuration{0};
          ++stats_.fresh;
          OBS_COMPLETE(net_.queue(), "transport", "pool-acquire", acquire_started, setup);
          cb(lease);
        });
  });
}

}  // namespace ednsm::transport
