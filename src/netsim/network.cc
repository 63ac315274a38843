#include "netsim/network.h"

#include <cassert>
#include <stdexcept>

#include "obs/trace.h"

namespace ednsm::netsim {

IpAddr Network::attach(geo::GeoPoint location, AccessLinkModel access) {
  const IpAddr addr = allocator_.next();
  hosts_.emplace(addr, Host{location, access, /*icmp=*/true});
  return addr;
}

void Network::set_icmp_responder(IpAddr host, bool responds) {
  const auto it = hosts_.find(host);
  if (it == hosts_.end()) throw std::invalid_argument("set_icmp_responder: unknown host");
  it->second.icmp_responder = responds;
}

void Network::set_quirk(IpAddr a, IpAddr b, const PathQuirk& quirk) {
  quirks_[pair_key(a, b)] = quirk;
  quirks_[pair_key(b, a)] = quirk;
  // Invalidate any already-built path so the quirk takes effect.
  paths_.erase(pair_key(a, b));
  paths_.erase(pair_key(b, a));
}

void Network::bind(const Endpoint& local, DatagramHandler handler) {
  bindings_[local] = std::move(handler);
}

void Network::unbind(const Endpoint& local) { bindings_.erase(local); }

std::uint16_t Network::ephemeral_port(IpAddr host) {
  std::uint16_t& counter = ephemeral_counters_[host];
  if (counter < 49152) counter = 49152;
  const std::uint16_t port = counter;
  counter = (counter == 65535) ? 49152 : static_cast<std::uint16_t>(counter + 1);
  return port;
}

const PathModel& Network::path(IpAddr src, IpAddr dst) {
  const std::uint64_t key = pair_key(src, dst);
  const auto it = paths_.find(key);
  if (it != paths_.end()) return it->second;

  const auto src_it = hosts_.find(src);
  const auto dst_it = hosts_.find(dst);
  if (src_it == hosts_.end() || dst_it == hosts_.end()) {
    throw std::invalid_argument("path: unknown host");
  }
  PathModel p = PathModel::between(src_it->second.location, dst_it->second.location,
                                   src_it->second.access, dst_it->second.access);
  const auto quirk_it = quirks_.find(key);
  if (quirk_it != quirks_.end()) p.quirk = quirk_it->second;
  return paths_.emplace(key, p).first->second;
}

std::optional<SimDuration> Network::sample_trip(IpAddr src, IpAddr dst) {
  const PathModel& p = path(src, dst);
  if (rng_.bernoulli(p.loss_probability())) return std::nullopt;
  return from_ms(p.sample_one_way_ms(rng_));
}

void Network::send(Datagram dgram) {
  ++stats_.datagrams_sent;
  const auto trip = sample_trip(dgram.src.ip, dgram.dst.ip);
  if (!trip.has_value()) {
    ++stats_.datagrams_dropped;
    OBS_EVENT(queue_, "netsim", "datagram-loss");
    return;
  }
  queue_.schedule(*trip, [this, d = std::move(dgram)]() {
    const auto it = bindings_.find(d.dst);
    if (it == bindings_.end()) {
      ++stats_.datagrams_unroutable;
      OBS_EVENT(queue_, "netsim", "datagram-unroutable");
      return;
    }
    ++stats_.datagrams_delivered;
    it->second(d);
  });
}

void Network::ping(IpAddr src, IpAddr dst, SimDuration timeout, PingCallback cb) {
  ++stats_.pings_sent;
  const auto dst_it = hosts_.find(dst);
  const bool answers = dst_it != hosts_.end() && dst_it->second.icmp_responder;

  std::optional<SimDuration> rtt;
  if (answers) {
    const auto out = sample_trip(src, dst);
    if (out.has_value()) {
      const auto back = sample_trip(dst, src);
      if (back.has_value()) rtt = *out + *back;
    }
  }

  if (rtt.has_value() && *rtt <= timeout) {
    ++stats_.pings_answered;
    queue_.schedule(*rtt, [cb = std::move(cb), rtt]() { cb(rtt); });
  } else {
    queue_.schedule(timeout, [cb = std::move(cb)]() { cb(std::nullopt); });
  }
}

std::optional<geo::GeoPoint> Network::location_of(IpAddr host) const {
  const auto it = hosts_.find(host);
  if (it == hosts_.end()) return std::nullopt;
  return it->second.location;
}

}  // namespace ednsm::netsim
