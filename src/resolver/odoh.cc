#include "resolver/odoh.h"

#include "dns/wire.h"

namespace ednsm::resolver {

using netsim::Endpoint;

util::Bytes ObliviousMessage::encode() const {
  dns::WireWriter w;
  w.u8(static_cast<std::uint8_t>(target_hostname.size()));
  w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(target_hostname.data()),
                    target_hostname.size()));
  w.u16(static_cast<std::uint16_t>(payload.size() + kHpkeOverhead));
  w.bytes(payload);
  for (std::size_t i = 0; i < kHpkeOverhead; ++i) w.u8(0x5A);  // simulated HPKE bytes
  return std::move(w).take();
}

Result<ObliviousMessage> ObliviousMessage::decode(std::span<const std::uint8_t> wire) {
  dns::WireReader r(wire);
  ObliviousMessage m;
  auto len = r.u8();
  if (!len) return Err{std::string("odoh: truncated target")};
  auto host = r.bytes(len.value());
  if (!host) return Err{std::string("odoh: truncated target")};
  m.target_hostname.assign(reinterpret_cast<const char*>(host.value().data()),
                           host.value().size());
  auto plen = r.u16();
  if (!plen) return Err{std::string("odoh: truncated payload length")};
  if (plen.value() < kHpkeOverhead) return Err{std::string("odoh: payload too short")};
  auto payload = r.bytes(plen.value() - kHpkeOverhead);
  if (!payload) return Err{std::string("odoh: truncated payload")};
  auto hpke = r.bytes(kHpkeOverhead);
  if (!hpke) return Err{std::string("odoh: truncated HPKE trailer")};
  if (!r.at_end()) return Err{std::string("odoh: trailing bytes")};
  m.payload = std::move(payload).value();
  return m;
}

OdohRelay::OdohRelay(netsim::Network& net, std::string hostname, geo::GeoPoint location,
                     TargetResolver resolve_target)
    : net_(net),
      hostname_(std::move(hostname)),
      addr_(net.attach(location, netsim::AccessLinkModel::datacenter())),
      resolve_target_(std::move(resolve_target)) {
  listener_ = std::make_unique<transport::TcpListener>(
      net_, Endpoint{addr_, netsim::kPortHttps});
  upstream_pool_ = std::make_unique<transport::ConnectionPool>(net_, addr_);

  transport::ServerHandshakeConfig tls_cfg;
  tls_cfg.certificate_names = {hostname_};

  listener_->on_accept([this, tls_cfg](transport::TcpServerConn& conn) {
    auto state = std::make_shared<ConnState>(net_.queue(), net_.rng(), conn, tls_cfg);
    conns_[&conn] = state;
    std::weak_ptr<ConnState> weak = state;
    state->tls.on_data([this, weak](util::Bytes data) {
      if (auto st = weak.lock()) handle_request(st, std::move(data));
    });
  });
  listener_->on_close([this](transport::TcpServerConn& conn) { conns_.erase(&conn); });
}

OdohRelay::~OdohRelay() = default;

void OdohRelay::handle_request(const std::shared_ptr<ConnState>& st, util::Bytes data) {
  auto respond_status = [st](int status) {
    http::Response resp;
    resp.status = status;
    st->tls.send(resp.encode());
  };

  auto request = http::Request::decode(data);
  if (!request) {
    ++stats_.malformed;
    respond_status(400);
    return;
  }
  const std::string* ct = http::find_header(request.value().headers, "content-type");
  if (request.value().method != "POST" || ct == nullptr ||
      *ct != std::string(kObliviousMediaType)) {
    ++stats_.malformed;
    respond_status(415);
    return;
  }
  auto oblivious = ObliviousMessage::decode(request.value().body);
  if (!oblivious) {
    ++stats_.malformed;
    respond_status(400);
    return;
  }
  const std::string target = oblivious.value().target_hostname;
  const auto target_addr = resolve_target_(target);
  if (!target_addr.has_value()) {
    ++stats_.target_failures;
    respond_status(502);
    return;
  }

  // Forward the sealed query to the target's DoH endpoint. The relay reuses
  // upstream sessions across client queries (Keepalive policy).
  ++stats_.forwarded;
  const Endpoint target_ep{*target_addr, netsim::kPortHttps};
  const http::Request upstream = http::make_doh_request(
      target, http::kDohDefaultPath, oblivious.value().payload, /*post=*/true);

  std::weak_ptr<ConnState> weak = st;
  upstream_pool_->acquire(
      target_ep, target, transport::ReusePolicy::Keepalive, {},
      [this, weak, target, upstream](Result<transport::ConnectionPool::Lease> lease) {
        auto client_conn = weak.lock();
        if (!client_conn) return;
        if (!lease) {
          ++stats_.target_failures;
          http::Response bad;
          bad.status = 502;
          client_conn->tls.send(bad.encode());
          return;
        }
        auto* tls = lease.value().tls;
        std::weak_ptr<ConnState> weak2 = client_conn;
        tls->on_data([this, weak2, target](util::Bytes answer) {
          auto client = weak2.lock();
          if (!client) return;
          auto response = http::Response::decode(answer);
          if (!response || response.value().status != 200) {
            ++stats_.target_failures;
            http::Response bad;
            bad.status = 502;
            client->tls.send(bad.encode());
            return;
          }
          // Re-encapsulate the (sealed) answer for the client.
          ObliviousMessage sealed;
          sealed.target_hostname = target;
          sealed.payload = std::move(response.value().body);
          http::Response out;
          out.status = 200;
          out.headers.emplace_back("content-type", std::string(kObliviousMediaType));
          out.body = sealed.encode();
          client->tls.send(out.encode());
        });
        tls->send(upstream.encode());
      });
}

}  // namespace ednsm::resolver
