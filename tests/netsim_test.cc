#include <gtest/gtest.h>

#include "geo/geodb.h"
#include "netsim/event_queue.h"
#include "netsim/network.h"
#include <cmath>
#include <algorithm>

#include "netsim/rng.h"

namespace ednsm::netsim {
namespace {

// ---- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformU64InRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_u64(17), 17u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalMedian) {
  Rng rng(29);
  std::vector<double> xs(100001);
  for (auto& x : xs) x = rng.lognormal(1.0, 0.5);
  std::nth_element(xs.begin(), xs.begin() + 50000, xs.end());
  EXPECT_NEAR(xs[50000], std::exp(1.0), 0.08);
}

TEST(Rng, ParetoBoundedBelowByScale) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ForkIsIndependentAndStable) {
  Rng base(99);
  Rng f1 = base.fork(1);
  Rng f1_again = base.fork(1);
  Rng f2 = base.fork(2);
  EXPECT_EQ(f1.next_u64(), f1_again.next_u64());  // same key -> same stream
  Rng f1b = base.fork(1);
  EXPECT_NE(f1b.next_u64(), f2.next_u64());
}

// ---- event queue ----------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(std::chrono::milliseconds(30), [&] { order.push_back(3); });
  q.schedule(std::chrono::milliseconds(10), [&] { order.push_back(1); });
  q.schedule(std::chrono::milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(q.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime(std::chrono::milliseconds(30)));
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(std::chrono::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule(std::chrono::milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  q.run_until_idle();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule(std::chrono::milliseconds(1), recurse);
  };
  q.schedule(std::chrono::milliseconds(1), recurse);
  q.run_until_idle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), SimTime(std::chrono::milliseconds(5)));
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.schedule(std::chrono::milliseconds(10), [&] { ++count; });
  q.schedule(std::chrono::milliseconds(20), [&] { ++count; });
  q.schedule(std::chrono::milliseconds(30), [&] { ++count; });
  EXPECT_EQ(q.run_until(SimTime(std::chrono::milliseconds(20))), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), SimTime(std::chrono::milliseconds(20)));
}

// ---- network ---------------------------------------------------------------------

struct World {
  EventQueue queue;
  Network net{queue, Rng(1234)};
  IpAddr a, b;

  World() {
    a = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
    b = net.attach(geo::city::kFrankfurt, AccessLinkModel::datacenter());
  }
};

TEST(Network, AddressesAreDistinct) {
  World w;
  EXPECT_NE(w.a, w.b);
}

TEST(Network, DatagramDeliveryRespectsPropagation) {
  World w;
  std::optional<SimTime> delivered_at;
  const Endpoint dst{w.b, 53};
  w.net.bind(dst, [&](const Datagram& d) {
    delivered_at = w.queue.now();
    EXPECT_EQ(d.payload, util::to_bytes("ping"));
    EXPECT_EQ(d.src.port, 9999);
  });
  w.net.send({{w.a, 9999}, dst, util::to_bytes("ping")});
  w.queue.run_until_idle();
  ASSERT_TRUE(delivered_at.has_value());
  // Chicago->Frankfurt one-way floor is ~62 ms (6970 km * 1.8 / 200).
  EXPECT_GT(to_ms(*delivered_at), 55.0);
  EXPECT_LT(to_ms(*delivered_at), 120.0);
}

TEST(Network, UnboundDestinationCountsUnroutable) {
  World w;
  w.net.send({{w.a, 1}, {w.b, 53}, util::to_bytes("x")});
  w.queue.run_until_idle();
  EXPECT_EQ(w.net.stats().datagrams_unroutable + w.net.stats().datagrams_dropped, 1u);
}

TEST(Network, UnbindStopsDelivery) {
  World w;
  int received = 0;
  const Endpoint dst{w.b, 53};
  w.net.bind(dst, [&](const Datagram&) { ++received; });
  w.net.unbind(dst);
  w.net.send({{w.a, 1}, dst, util::to_bytes("x")});
  w.queue.run_until_idle();
  EXPECT_EQ(received, 0);
}

TEST(Network, PingReturnsRtt) {
  World w;
  std::optional<SimDuration> rtt;
  w.net.ping(w.a, w.b, std::chrono::seconds(3), [&](auto r) { rtt = r; });
  w.queue.run_until_idle();
  ASSERT_TRUE(rtt.has_value());
  EXPECT_GT(to_ms(*rtt), 110.0);  // ~2x one-way floor
  EXPECT_LT(to_ms(*rtt), 220.0);
}

TEST(Network, PingRespectsIcmpPolicy) {
  World w;
  w.net.set_icmp_responder(w.b, false);
  bool called = false;
  std::optional<SimDuration> rtt;
  w.net.ping(w.a, w.b, std::chrono::milliseconds(500), [&](auto r) {
    called = true;
    rtt = r;
  });
  w.queue.run_until_idle();
  EXPECT_TRUE(called);
  EXPECT_FALSE(rtt.has_value());
  // The callback fires at the timeout, not before.
  EXPECT_EQ(w.queue.now(), SimTime(std::chrono::milliseconds(500)));
}

TEST(Network, QuirkAddsBaseDelay) {
  World w;
  PathQuirk quirk;
  quirk.extra_base_ms = 100.0;
  w.net.set_quirk(w.a, w.b, quirk);
  std::optional<SimDuration> rtt;
  w.net.ping(w.a, w.b, std::chrono::seconds(5), [&](auto r) { rtt = r; });
  w.queue.run_until_idle();
  ASSERT_TRUE(rtt.has_value());
  EXPECT_GT(to_ms(*rtt), 310.0);  // 2 x (62 + 100)
}

TEST(Network, LossyPathDropsSomeDatagrams) {
  EventQueue queue;
  Network net(queue, Rng(5));
  AccessLinkModel lossy = AccessLinkModel::datacenter();
  lossy.loss_probability = 0.5;
  const IpAddr a = net.attach(geo::city::kChicago, lossy);
  const IpAddr b = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
  int received = 0;
  net.bind({b, 1}, [&](const Datagram&) { ++received; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) net.send({{a, 2}, {b, 1}, {}});
  queue.run_until_idle();
  EXPECT_GT(received, n / 2 - 150);
  EXPECT_LT(received, n / 2 + 150);
}

TEST(Network, PathModelFloor) {
  World w;
  const PathModel& p = w.net.path(w.a, w.b);
  Rng rng(1);
  const double floor_ms =
      p.propagation_ms + p.quirk.extra_base_ms + p.src_access.base_ms + p.dst_access.base_ms;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(p.sample_one_way_ms(rng), floor_ms);
  }
}

TEST(Network, ResidentialAccessAddsLatencyAndJitter) {
  EventQueue queue;
  Network net(queue, Rng(6));
  const IpAddr home = net.attach(geo::city::kChicago, AccessLinkModel::residential());
  const IpAddr dc = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());
  const IpAddr dc2 = net.attach(geo::city::kChicago, AccessLinkModel::datacenter());

  auto median_rtt = [&](IpAddr src, IpAddr dst) {
    std::vector<double> rtts;
    for (int i = 0; i < 201; ++i) {
      net.ping(src, dst, std::chrono::seconds(10),
               [&](auto r) { if (r) rtts.push_back(to_ms(*r)); });
    }
    queue.run_until_idle();
    std::nth_element(rtts.begin(), rtts.begin() + static_cast<long>(rtts.size() / 2),
                     rtts.end());
    return rtts[rtts.size() / 2];
  };

  const double home_rtt = median_rtt(home, dc);
  const double dc_rtt = median_rtt(dc2, dc);
  EXPECT_GT(home_rtt, dc_rtt + 8.0);  // ~2x 6ms last-mile minus noise
}

TEST(AccessLink, BurstsProduceHeavyTail) {
  AccessLinkModel m = AccessLinkModel::residential();
  Rng rng(77);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = m.sample_delay_ms(rng);
  std::sort(xs.begin(), xs.end());
  const double p50 = xs[xs.size() / 2];
  const double p999 = xs[static_cast<std::size_t>(0.999 * static_cast<double>(xs.size()))];
  EXPECT_GT(p999, p50 * 2.0);  // bursty tail
}

}  // namespace
}  // namespace ednsm::netsim
