#include "client/do53.h"

#include "obs/trace.h"

namespace ednsm::client {

namespace {
constexpr netsim::SimDuration kRetransmitAfter = std::chrono::seconds(2);
}

Do53Client::Do53Client(netsim::Network& net, netsim::IpAddr local_ip, QueryOptions options)
    : net_(net), local_ip_(local_ip), options_(options) {}

Do53Client::Do53Client(netsim::Network& net, netsim::IpAddr local_ip, SessionTarget target,
                       QueryOptions options)
    : net_(net), local_ip_(local_ip), target_(std::move(target)), options_(options) {}

void Do53Client::query(const dns::Name& qname, dns::RecordType qtype, QueryCallback cb) {
  query(target_.server, qname, qtype, std::move(cb));
}

void Do53Client::query(netsim::IpAddr server, const dns::Name& qname, dns::RecordType qtype,
                       QueryCallback cb) {
  // The UDP side of one query: its socket and the retransmit timer.
  struct Udp {
    std::unique_ptr<transport::UdpSocket> socket;
    std::optional<netsim::EventQueue::EventId> retransmit_timer;
  };
  auto udp = std::make_shared<Udp>();
  ++inflight_;

  const netsim::Endpoint local{local_ip_, net_.ephemeral_port(local_ip_)};
  const netsim::Endpoint remote{server, netsim::kPortDns};
  udp->socket = std::make_unique<transport::UdpSocket>(net_, local);

  // Runs before the outcome is delivered. It breaks the ownership cycle
  // (the socket's receive handler captures `udp`). The handler may be the
  // code calling us right now, so the socket's destruction is deferred to a
  // fresh event: destroying an executing std::function is undefined
  // behaviour.
  auto close = [this, udp] {
    if (udp->retransmit_timer.has_value()) {
      net_.queue().cancel(*udp->retransmit_timer);
      udp->retransmit_timer.reset();
    }
    --inflight_;
    net_.queue().schedule(
        netsim::kZeroDuration,
        [doomed = std::shared_ptr<transport::UdpSocket>(std::move(udp->socket))] {});
  };
  auto q = PendingQuery::start(net_, Protocol::Do53, options_.timeout, std::move(cb), close);
  q->connected = true;  // nothing to connect: a deadline is a plain timeout

  const util::Bytes wire = dns::make_query(q->id(), qname, qtype).encode(options_.pad_block);

  udp->socket->on_receive([this, q, close](const netsim::Datagram& d) {
    if (!q->open()) return;  // late duplicate
    auto response = dns::Message::decode(d.payload);
    if (response && !q->matches(response.value())) return;  // stray datagram: keep waiting
    // No connection phases on UDP: the whole query is one exchange.
    const netsim::SimDuration exchange = net_.queue().now() - q->started();
    OBS_COMPLETE(net_.queue(), "client", "do53-exchange", q->started(), exchange);
    close();
    q->answer(std::move(response), exchange);
  });

  udp->socket->send_to(remote, wire);

  // dig-style retransmission once the initial wait elapses.
  if (options_.timeout > kRetransmitAfter) {
    // close() cancels this timer, so the socket is still open when it fires.
    udp->retransmit_timer = net_.queue().schedule(kRetransmitAfter, [udp, remote, wire] {
      udp->retransmit_timer.reset();
      udp->socket->send_to(remote, wire);
    });
  }
}

}  // namespace ednsm::client
