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

struct ConnectionPool::Session {
  Session() = default;
  Session(const Session&) = delete;  // callbacks hold its address
  Session& operator=(const Session&) = delete;
  virtual ~Session() = default;
  [[nodiscard]] virtual bool established() const noexcept = 0;
  // Connects and handshakes; `done` fires once, unless the session dies first.
  virtual void open(TlsMode mode, std::optional<SessionTicket> ticket, util::Bytes early_data,
                    TlsClient::HandshakeCallback done) = 0;
  // Points `lease` at the connection, with its handshake phases when fresh.
  virtual void fill(Lease& lease, bool fresh) = 0;
  std::shared_ptr<void> protocol_state;  // see Lease::protocol_state
};

// TLS over TCP: the TCP handshake, then the TLS one.
struct ConnectionPool::TlsSession final : Session {
  TcpConnection tcp;
  TlsClient tls;
  TlsSession(netsim::Network& net, netsim::Endpoint local, const netsim::Endpoint& remote,
             std::uint32_t conn_id, const std::string& sni)
      : tcp(net, local, remote, conn_id), tls(tcp, TlsClientConfig{sni}) {}
  [[nodiscard]] bool established() const noexcept override { return tls.established(); }
  void open(TlsMode mode, std::optional<SessionTicket> ticket, util::Bytes early_data,
            TlsClient::HandshakeCallback done) override {
    tcp.connect([this, mode, ticket = std::move(ticket), early_data = std::move(early_data),
                 done = std::move(done)](Result<void> connected) mutable {
      if (!connected) {
        done(Err{connected.error()});
        return;
      }
      tls.handshake(mode, std::move(ticket), std::move(early_data), std::move(done));
    });
  }
  void fill(Lease& lease, bool fresh) override {
    lease.tls = &tls;
    if (fresh) {
      lease.tcp_handshake = tcp.handshake_duration();
      lease.tls_handshake = tls.handshake_duration();
    }
  }
};

// QUIC: transport and crypto setup in one flight.
struct ConnectionPool::QuicSession final : Session {
  QuicConnection quic;
  QuicSession(netsim::Network& net, netsim::Endpoint local, const netsim::Endpoint& remote,
              std::uint32_t conn_id, const std::string& sni)
      : quic(net, local, remote, sni, conn_id) {}
  [[nodiscard]] bool established() const noexcept override { return quic.established(); }
  void open(TlsMode mode, std::optional<SessionTicket> ticket, util::Bytes early_data,
            TlsClient::HandshakeCallback done) override {
    quic.connect(mode, std::move(ticket), std::move(early_data), std::move(done));
  }
  void fill(Lease& lease, bool fresh) override {
    lease.quic = &quic;
    if (fresh) lease.quic_handshake = quic.handshake_duration();
  }
};

ConnectionPool::ConnectionPool(netsim::Network& net, netsim::IpAddr local_ip)
    : net_(net), local_ip_(local_ip) {}

ConnectionPool::~ConnectionPool() = default;

bool ConnectionPool::has_ticket(const netsim::Endpoint& remote, const std::string& sni) const {
  return tickets_.contains({remote, sni});
}

void ConnectionPool::invalidate(const netsim::Endpoint& remote, const std::string& sni) {
  sessions_.erase({remote, sni});
}

template <typename S>
void ConnectionPool::acquire_as(const netsim::Endpoint& remote, const std::string& sni,
                                ReusePolicy policy, util::Bytes early_data, AcquireCallback cb) {
  const SessionKey key{remote, sni};
  const netsim::SimTime acquire_started = net_.queue().now();
  ++stats_.acquires;

  if (policy != ReusePolicy::None) {
    const auto it = sessions_.find(key);
    if (it != sessions_.end() && it->second->established()) {
      ++stats_.reused;
      OBS_EVENT(net_.queue(), "transport", "pool-reuse");
      Lease lease;
      it->second->fill(lease, false);
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
  auto session = std::make_unique<S>(net_, local, remote, next_conn_id_++, sni);
  S* raw = session.get();
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

  raw->open(
      mode, std::move(ticket), std::move(early_data),
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
        raw->fill(lease, true);
        lease.fresh = true;
        lease.protocol_state = &raw->protocol_state;
        lease.mode = mode;
        lease.early_data_accepted = hs.value().early_data_accepted;
        const netsim::SimDuration setup = net_.queue().now() - acquire_started;
        const netsim::SimDuration handshakes =
            lease.tcp_handshake + lease.tls_handshake + lease.quic_handshake;
        lease.wait_in_pool =
            setup > handshakes ? setup - handshakes : netsim::SimDuration{0};
        ++stats_.fresh;
        OBS_COMPLETE(net_.queue(), "transport", "pool-acquire", acquire_started, setup);
        cb(lease);
      });
}

void ConnectionPool::acquire(const netsim::Endpoint& remote, const std::string& sni,
                             ReusePolicy policy, util::Bytes early_data, AcquireCallback cb) {
  acquire_as<TlsSession>(remote, sni, policy, std::move(early_data), std::move(cb));
}

void ConnectionPool::acquire_quic(const netsim::Endpoint& remote, const std::string& sni,
                                  ReusePolicy policy, util::Bytes early_data,
                                  AcquireCallback cb) {
  acquire_as<QuicSession>(remote, sni, policy, std::move(early_data), std::move(cb));
}

}  // namespace ednsm::transport
