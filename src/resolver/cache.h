// Recursive-resolver answer cache with TTL decay and LRU eviction.
//
// Keys are (qname, qtype, qclass); values are the answer RRset plus the
// response code (negative answers are cached too, per RFC 2308, using the
// SOA minimum as the negative TTL). TTLs decay against the simulated clock:
// a hit returns the records with their remaining TTL.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "netsim/time.h"

namespace ednsm::resolver {

struct CacheKey {
  dns::Name qname;
  dns::RecordType qtype = dns::RecordType::A;
  dns::RecordClass qclass = dns::RecordClass::IN;

  [[nodiscard]] bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    std::size_t h = k.qname.hash();
    h ^= static_cast<std::size_t>(k.qtype) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::size_t>(k.qclass) * 0xc2b2ae3d27d4eb4fULL;
    return h;
  }
};

struct CacheEntry {
  dns::Rcode rcode = dns::Rcode::NoError;
  std::vector<dns::ResourceRecord> answers;  // TTLs as of insertion
  netsim::SimTime inserted_at{0};
  netsim::SimDuration ttl{0};  // min TTL across the RRset (or negative TTL)
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t expirations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
};

class Cache {
 public:
  explicit Cache(std::size_t capacity = 10000) : capacity_(capacity) {}

  // Insert an answer observed at `now`. The entry TTL is the minimum record
  // TTL (clamped to >= 1s so zero-TTL records do not thrash), or
  // `negative_ttl` when the answer set is empty.
  void insert(const CacheKey& key, dns::Rcode rcode,
              std::vector<dns::ResourceRecord> answers, netsim::SimTime now,
              netsim::SimDuration negative_ttl = std::chrono::seconds(60));

  // Lookup at `now`. Expired entries are removed and count as misses. The
  // returned records carry their *remaining* TTL.
  [[nodiscard]] std::optional<CacheEntry> lookup(const CacheKey& key, netsim::SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  void touch(const CacheKey& key);

  std::size_t capacity_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> entries_;
  std::list<CacheKey> lru_;  // front = most recently used
  std::unordered_map<CacheKey, std::list<CacheKey>::iterator, CacheKeyHash> lru_index_;
  CacheStats stats_;
};

}  // namespace ednsm::resolver
