#include "resolver/cache.h"

#include <algorithm>

namespace ednsm::resolver {

void Cache::insert(const CacheKey& key, dns::Rcode rcode,
                   std::vector<dns::ResourceRecord> answers, netsim::SimTime now,
                   netsim::SimDuration negative_ttl) {
  CacheEntry entry;
  entry.rcode = rcode;
  entry.inserted_at = now;
  if (answers.empty()) {
    entry.ttl = negative_ttl;
  } else {
    std::uint32_t min_ttl = answers.front().ttl;
    for (const auto& rr : answers) min_ttl = std::min(min_ttl, rr.ttl);
    entry.ttl = std::chrono::seconds(std::max<std::uint32_t>(min_ttl, 1));
  }
  entry.answers = std::move(answers);

  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = std::move(entry);
    touch(key);
  } else {
    if (entries_.size() >= capacity_ && !lru_.empty()) {
      const CacheKey victim = lru_.back();
      lru_.pop_back();
      lru_index_.erase(victim);
      entries_.erase(victim);
      ++stats_.evictions;
    }
    entries_.emplace(key, std::move(entry));
    lru_.push_front(key);
    lru_index_[key] = lru_.begin();
  }
  ++stats_.insertions;
}

std::optional<CacheEntry> Cache::lookup(const CacheKey& key, netsim::SimTime now) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const CacheEntry& e = it->second;
  const netsim::SimDuration age = now - e.inserted_at;
  if (age >= e.ttl) {
    ++stats_.expirations;
    ++stats_.misses;
    const auto lru_it = lru_index_.find(key);
    if (lru_it != lru_index_.end()) {
      lru_.erase(lru_it->second);
      lru_index_.erase(lru_it);
    }
    entries_.erase(it);
    return std::nullopt;
  }

  ++stats_.hits;
  touch(key);
  CacheEntry out = e;
  // Decay TTLs to the remaining lifetime.
  const auto remaining_s = std::chrono::duration_cast<std::chrono::seconds>(e.ttl - age);
  for (auto& rr : out.answers) {
    rr.ttl = static_cast<std::uint32_t>(std::max<std::int64_t>(remaining_s.count(), 0));
  }
  return out;
}

void Cache::touch(const CacheKey& key) {
  const auto it = lru_index_.find(key);
  if (it == lru_index_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
}

}  // namespace ednsm::resolver
