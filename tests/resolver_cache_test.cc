#include <gtest/gtest.h>

#include "resolver/cache.h"

namespace ednsm::resolver {
namespace {

using namespace std::chrono_literals;
using netsim::SimTime;

CacheKey key(const char* name) {
  return CacheKey{dns::Name::parse(name).value(), dns::RecordType::A, dns::RecordClass::IN};
}

dns::ResourceRecord record(const char* name, std::uint32_t ttl) {
  dns::ResourceRecord rr;
  rr.name = dns::Name::parse(name).value();
  rr.type = dns::RecordType::A;
  rr.ttl = ttl;
  dns::ARecord a;
  a.address = {192, 0, 2, 1};
  rr.rdata = a;
  return rr;
}

TEST(Cache, MissOnEmpty) {
  Cache cache;
  EXPECT_FALSE(cache.lookup(key("a.com"), SimTime(0)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, HitAfterInsert) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 300)}, SimTime(0));
  auto hit = cache.lookup(key("a.com"), SimTime(1s));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->answers.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, KeyIsCaseInsensitive) {
  Cache cache;
  cache.insert(key("A.COM"), dns::Rcode::NoError, {record("a.com", 300)}, SimTime(0));
  EXPECT_TRUE(cache.lookup(key("a.com"), SimTime(0)).has_value());
}

TEST(Cache, KeyDistinguishesType) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 300)}, SimTime(0));
  CacheKey aaaa = key("a.com");
  aaaa.qtype = dns::RecordType::AAAA;
  EXPECT_FALSE(cache.lookup(aaaa, SimTime(0)).has_value());
}

TEST(Cache, TtlDecaysOnHit) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 300)}, SimTime(0));
  auto hit = cache.lookup(key("a.com"), SimTime(100s));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->answers[0].ttl, 200u);
}

TEST(Cache, ExpiresAtTtl) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 300)}, SimTime(0));
  EXPECT_TRUE(cache.lookup(key("a.com"), SimTime(299s)).has_value());
  EXPECT_FALSE(cache.lookup(key("a.com"), SimTime(300s)).has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entry removed
}

TEST(Cache, MinTtlOfRrsetGoverns) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError,
               {record("a.com", 300), record("a.com", 60)}, SimTime(0));
  EXPECT_TRUE(cache.lookup(key("a.com"), SimTime(59s)).has_value());
  EXPECT_FALSE(cache.lookup(key("a.com"), SimTime(60s)).has_value());
}

TEST(Cache, ZeroTtlClampedToOneSecond) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 0)}, SimTime(0));
  EXPECT_TRUE(cache.lookup(key("a.com"), SimTime(500ms)).has_value());
  EXPECT_FALSE(cache.lookup(key("a.com"), SimTime(1s)).has_value());
}

TEST(Cache, NegativeCachingUsesNegativeTtl) {
  Cache cache;
  cache.insert(key("missing.com"), dns::Rcode::NxDomain, {}, SimTime(0), 30s);
  auto hit = cache.lookup(key("missing.com"), SimTime(29s));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rcode, dns::Rcode::NxDomain);
  EXPECT_TRUE(hit->answers.empty());
  EXPECT_FALSE(cache.lookup(key("missing.com"), SimTime(31s)).has_value());
}

TEST(Cache, LruEvictionAtCapacity) {
  Cache cache(3);
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 300)}, SimTime(0));
  cache.insert(key("b.com"), dns::Rcode::NoError, {record("b.com", 300)}, SimTime(0));
  cache.insert(key("c.com"), dns::Rcode::NoError, {record("c.com", 300)}, SimTime(0));
  // Touch a.com so b.com is the LRU victim.
  (void)cache.lookup(key("a.com"), SimTime(1s));
  cache.insert(key("d.com"), dns::Rcode::NoError, {record("d.com", 300)}, SimTime(0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.lookup(key("a.com"), SimTime(1s)).has_value());
  EXPECT_FALSE(cache.lookup(key("b.com"), SimTime(1s)).has_value());
  EXPECT_TRUE(cache.lookup(key("d.com"), SimTime(1s)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, ReinsertUpdatesEntry) {
  Cache cache;
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 10)}, SimTime(0));
  cache.insert(key("a.com"), dns::Rcode::NoError, {record("a.com", 1000)}, SimTime(5s));
  auto hit = cache.lookup(key("a.com"), SimTime(500s));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.size(), 1u);
}

// Parameterized sweep: entries inserted at t=0 with TTL T are visible at
// T-1s and gone at T, for a range of TTLs.
class CacheTtlSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheTtlSweep, BoundaryExact) {
  const std::uint32_t ttl = GetParam();
  Cache cache;
  cache.insert(key("x.com"), dns::Rcode::NoError, {record("x.com", ttl)}, SimTime(0));
  EXPECT_TRUE(cache.lookup(key("x.com"), SimTime(std::chrono::seconds(ttl) - 1s)).has_value());
  EXPECT_FALSE(cache.lookup(key("x.com"), SimTime(std::chrono::seconds(ttl))).has_value());
}

INSTANTIATE_TEST_SUITE_P(Ttls, CacheTtlSweep, ::testing::Values(1, 2, 30, 300, 3600, 86400));

}  // namespace
}  // namespace ednsm::resolver
