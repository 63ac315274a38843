// Network: hosts, datagram delivery, ICMP echo.
//
// Hosts attach with a location and an access-link model and receive a
// synthetic address. Paths are built lazily per (src, dst) from the geo model
// and cached; the resolver registry may install per-pair quirks before
// traffic flows. Datagram delivery samples the path (delay, loss) and
// schedules the receiver's handler on the event queue — there is no global
// routing table because the simulated topology is a full mesh of wide-area
// paths, which is the right abstraction for client <-> anycast-site traffic.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "geo/coords.h"
#include "netsim/address.h"
#include "netsim/event_queue.h"
#include "netsim/path.h"
#include "netsim/rng.h"
#include "util/bytes.h"

namespace ednsm::netsim {

struct Datagram {
  Endpoint src;
  Endpoint dst;
  util::Bytes payload;
};

struct NetworkStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_dropped = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagrams_unroutable = 0;  // no handler bound at delivery time
  std::uint64_t pings_sent = 0;
  std::uint64_t pings_answered = 0;
};

class Network {
 public:
  using DatagramHandler = std::function<void(const Datagram&)>;
  // nullopt = no reply within the caller's timeout (filtered or lost).
  using PingCallback = std::function<void(std::optional<SimDuration>)>;

  Network(EventQueue& queue, Rng rng) : queue_(queue), rng_(std::move(rng)) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Register a host; returns its address.
  IpAddr attach(geo::GeoPoint location, AccessLinkModel access);

  // Use up the next address without attaching a host, so a world that
  // builds only part of a population gives every later host the address the
  // whole population would.
  void skip_address() { (void)allocator_.next(); }

  // Whether the host answers ICMP echo (default true). The paper notes some
  // resolvers never answered pings; the registry turns this off for them.
  void set_icmp_responder(IpAddr host, bool responds);

  // Install a quirk on both directions of the (a, b) path. Must be called
  // before the first packet flows between the pair (paths are cached).
  void set_quirk(IpAddr a, IpAddr b, const PathQuirk& quirk);

  // Port binding. Binding an already-bound endpoint replaces the handler.
  void bind(const Endpoint& local, DatagramHandler handler);
  void unbind(const Endpoint& local);

  // Allocate the next ephemeral port (49152..65535, wrapping) for `host`.
  // Centralized here so independent clients on one host can never collide —
  // per-client counters would all start at 49152 and steal each other's
  // bindings.
  [[nodiscard]] std::uint16_t ephemeral_port(IpAddr host);

  // Fire-and-forget datagram. Loss and delay are sampled per packet.
  void send(Datagram dgram);

  // ICMP echo with timeout. The callback always fires exactly once: with the
  // RTT if an answer arrived in time, nullopt otherwise.
  void ping(IpAddr src, IpAddr dst, SimDuration timeout, PingCallback cb);

  // The cached path model (built on first use).
  [[nodiscard]] const PathModel& path(IpAddr src, IpAddr dst);

  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::optional<geo::GeoPoint> location_of(IpAddr host) const;

  // Sample one one-way trip; returns nullopt if the packet is lost.
  [[nodiscard]] std::optional<SimDuration> sample_trip(IpAddr src, IpAddr dst);

 private:
  struct Host {
    geo::GeoPoint location;
    AccessLinkModel access;
    bool icmp_responder = true;
  };

  // Paths are looked up once per packet, so the (src, dst) pair is packed
  // into one u64 hashed key instead of an ordered pair-keyed tree. Nothing
  // iterates these maps; only point lookups, so ordering is irrelevant.
  [[nodiscard]] static constexpr std::uint64_t pair_key(IpAddr src, IpAddr dst) noexcept {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
  }

  EventQueue& queue_;
  Rng rng_;
  AddressAllocator allocator_;
  std::unordered_map<IpAddr, Host, IpAddrHash> hosts_;
  std::unordered_map<std::uint64_t, PathModel> paths_;
  std::unordered_map<std::uint64_t, PathQuirk> quirks_;
  std::unordered_map<Endpoint, DatagramHandler, EndpointHash> bindings_;
  std::unordered_map<IpAddr, std::uint16_t, IpAddrHash> ephemeral_counters_;
  NetworkStats stats_;
};

}  // namespace ednsm::netsim
