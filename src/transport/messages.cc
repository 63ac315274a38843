#include "transport/messages.h"

#include <algorithm>

namespace ednsm::transport {

MessageCore::MessageCore(netsim::EventQueue& queue, std::size_t chunk_bytes,
                         netsim::SimDuration retransmit_after, SendFn send)
    : queue_(queue),
      chunk_bytes_(chunk_bytes),
      retransmit_after_(retransmit_after),
      send_(std::move(send)) {}

MessageCore::~MessageCore() { shutdown(); }

void MessageCore::shutdown() {
  dead_ = true;
  for (auto& [id, out] : outbound_) {
    if (out.timer.has_value()) queue_.cancel(*out.timer);
    out.timer.reset();
  }
}

void MessageCore::send(std::uint64_t id, util::Bytes data) {
  Outbound out;
  const std::size_t total = data.empty() ? 1 : (data.size() + chunk_bytes_ - 1) / chunk_bytes_;
  out.chunks.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Chunk chunk;
    chunk.id = id;
    chunk.seq = static_cast<std::uint16_t>(i);
    chunk.total = static_cast<std::uint16_t>(total);
    const std::size_t begin = i * chunk_bytes_;
    const std::size_t end = std::min(data.size(), begin + chunk_bytes_);
    chunk.data.assign(data.begin() + static_cast<std::ptrdiff_t>(begin),
                      data.begin() + static_cast<std::ptrdiff_t>(end));
    out.unacked.insert(chunk.seq);
    out.chunks.push_back(std::move(chunk));
  }
  for (const Chunk& chunk : out.chunks) {
    ++stats_.chunks_sent;
    send_(chunk, /*ack=*/false);
  }
  outbound_.insert_or_assign(id, std::move(out));
  arm_timer(id);
}

void MessageCore::arm_timer(std::uint64_t id) {
  auto it = outbound_.find(id);
  if (it == outbound_.end() || it->second.unacked.empty()) return;
  it->second.timer = queue_.schedule(retransmit_after_, [this, id] { on_timer(id); });
}

void MessageCore::on_timer(std::uint64_t id) {
  if (dead_) return;
  auto it = outbound_.find(id);
  if (it == outbound_.end() || it->second.unacked.empty()) return;
  Outbound& out = it->second;
  out.timer.reset();
  // Out of resends: the message is abandoned, and the query waiting on it
  // fails at its own deadline.
  if (++out.retransmissions > kMaxRetransmissions) return;
  for (std::uint16_t seq : out.unacked) {
    ++stats_.retransmissions;
    send_(out.chunks[seq], /*ack=*/false);
  }
  arm_timer(id);
}

void MessageCore::handle_ack(std::uint64_t id, std::uint16_t seq) {
  auto it = outbound_.find(id);
  if (it == outbound_.end()) return;
  it->second.unacked.erase(seq);
  if (it->second.unacked.empty()) {
    if (it->second.timer.has_value()) queue_.cancel(*it->second.timer);
    outbound_.erase(it);
  }
}

void MessageCore::handle_chunk(std::uint64_t id, std::uint16_t seq, std::uint16_t total,
                               util::Bytes data) {
  Chunk ack;
  ack.id = id;
  ack.seq = seq;
  send_(ack, /*ack=*/true);

  Inbound& in = inbound_[id];
  if (in.delivered) return;
  in.chunks.emplace(seq, std::move(data));
  if (in.chunks.size() == total) {
    in.delivered = true;
    util::Bytes whole;
    for (auto& [s, chunk] : in.chunks) whole.insert(whole.end(), chunk.begin(), chunk.end());
    in.chunks.clear();
    if (on_message_) on_message_(id, std::move(whole));
  }
}

}  // namespace ednsm::transport
