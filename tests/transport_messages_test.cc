// MessageCore, the reliable-delivery engine under TCP and QUIC, driven over
// a scripted loopback: two engines on a bare EventQueue, whose `send` hooks
// log every chunk and ack and deliver it to the other side after a fixed
// delay unless the script drops it. Every test runs with both protocols'
// constants.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "transport/messages.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/bytes.h"

namespace ednsm::transport {
namespace {

using netsim::EventQueue;
using netsim::SimDuration;
using netsim::SimTime;

struct Constants {
  std::string name;
  std::size_t chunk_bytes;
  SimDuration retransmit_after;
};

void PrintTo(const Constants& c, std::ostream* os) { *os << c.name; }

// One packet a side's hook put on the loopback.
struct Sent {
  Chunk chunk;
  bool ack = false;
  SimTime at{0};
};

struct Delivered {
  std::uint64_t id = 0;
  util::Bytes message;
};

class Loopback {
 public:
  static constexpr SimDuration kDelay = std::chrono::milliseconds(10);

  explicit Loopback(const Constants& c)
      : a(queue, c.chunk_bytes, c.retransmit_after, hook(0)),
        b(queue, c.chunk_bytes, c.retransmit_after, hook(1)) {
    a.on_message([this](std::uint64_t id, util::Bytes m) { delivered[0].push_back({id, m}); });
    b.on_message([this](std::uint64_t id, util::Bytes m) { delivered[1].push_back({id, m}); });
  }

  // Side 0 is `a`, side 1 is `b`.
  [[nodiscard]] std::vector<Sent> data_sent(int side) const {
    std::vector<Sent> out;
    for (const Sent& s : sent[side]) {
      if (!s.ack) out.push_back(s);
    }
    return out;
  }
  [[nodiscard]] std::vector<Sent> acks_sent(int side) const {
    std::vector<Sent> out;
    for (const Sent& s : sent[side]) {
      if (s.ack) out.push_back(s);
    }
    return out;
  }

  EventQueue queue;
  // Drop everything a side sends while set; `hold` keeps data chunks from
  // side 0 back for the test to deliver by hand.
  bool drop[2] = {false, false};
  bool hold = false;
  std::vector<Sent> sent[2];
  std::vector<Delivered> delivered[2];
  std::vector<Chunk> held;
  MessageCore a;
  MessageCore b;

 private:
  MessageCore::SendFn hook(int side) {
    return [this, side](const Chunk& chunk, bool ack) {
      sent[side].push_back({chunk, ack, queue.now()});
      if (drop[side]) return;
      if (side == 0 && hold && !ack) {
        held.push_back(chunk);
        return;
      }
      MessageCore& to = side == 0 ? b : a;
      queue.schedule(kDelay, [&to, chunk, ack] {
        if (ack) {
          to.handle_ack(chunk.id, chunk.seq);
        } else {
          to.handle_chunk(chunk.id, chunk.seq, chunk.total, chunk.data);
        }
      });
    };
  }
};

util::Bytes pattern(std::size_t size) {
  util::Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) b[i] = static_cast<std::uint8_t>(i % 251);
  return b;
}

std::size_t chunks_for(std::size_t size, std::size_t chunk_bytes) {
  return size == 0 ? 1 : (size + chunk_bytes - 1) / chunk_bytes;
}

class MessageCoreTest : public ::testing::TestWithParam<Constants> {};

TEST_P(MessageCoreTest, EverySizeArrivesWholeInCeilChunks) {
  const std::size_t c = GetParam().chunk_bytes;
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, c, c + 1, 3 * c}) {
    SCOPED_TRACE("size " + std::to_string(size));
    Loopback w(GetParam());
    const util::Bytes message = pattern(size);
    w.a.send(4, message);
    w.queue.run_until_idle();

    const std::size_t n = chunks_for(size, c);
    const std::vector<Sent> data = w.data_sent(0);
    ASSERT_EQ(data.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(data[i].chunk.id, 4u);
      EXPECT_EQ(data[i].chunk.seq, i);
      EXPECT_EQ(data[i].chunk.total, n);
      EXPECT_LE(data[i].chunk.data.size(), c);
    }
    EXPECT_EQ(w.acks_sent(1).size(), n);
    ASSERT_EQ(w.delivered[1].size(), 1u);
    EXPECT_EQ(w.delivered[1][0].id, 4u);
    EXPECT_EQ(w.delivered[1][0].message, message);
    EXPECT_EQ(w.a.stats().chunks_sent, n);
    EXPECT_EQ(w.a.stats().retransmissions, 0u);
    EXPECT_EQ(w.queue.pending(), 0u);  // the last ack cancelled the timer
  }
}

TEST_P(MessageCoreTest, RepliesTravelOnTheirOwnIds) {
  Loopback w(GetParam());
  w.b.on_message([&](std::uint64_t id, util::Bytes m) {
    w.delivered[1].push_back({id, m});
    w.b.send(id, util::to_bytes("re:" + util::as_string(m)));
  });
  w.a.send(0, util::to_bytes("first"));
  w.a.send(8, util::to_bytes("second"));
  w.queue.run_until_idle();
  ASSERT_EQ(w.delivered[0].size(), 2u);
  EXPECT_EQ(w.delivered[0][0].id, 0u);
  EXPECT_EQ(w.delivered[0][0].message, util::to_bytes("re:first"));
  EXPECT_EQ(w.delivered[0][1].id, 8u);
  EXPECT_EQ(w.delivered[0][1].message, util::to_bytes("re:second"));
  EXPECT_EQ(w.queue.pending(), 0u);
}

TEST_P(MessageCoreTest, ChunksInReverseOrderReassemble) {
  Loopback w(GetParam());
  w.hold = true;
  const util::Bytes message = pattern(3 * GetParam().chunk_bytes + 5);
  w.a.send(1, message);
  ASSERT_EQ(w.held.size(), 4u);
  for (auto it = w.held.rbegin(); it != w.held.rend(); ++it) {
    EXPECT_TRUE(w.delivered[1].empty());
    w.b.handle_chunk(it->id, it->seq, it->total, it->data);
  }
  ASSERT_EQ(w.delivered[1].size(), 1u);
  EXPECT_EQ(w.delivered[1][0].message, message);
  w.queue.run_until_idle();  // the acks reach `a` and cancel its timer
  EXPECT_EQ(w.a.stats().retransmissions, 0u);
  EXPECT_EQ(w.queue.pending(), 0u);
}

// The ack goes out before the chunk is stored: when the last chunk completes
// the message, its ack is already on the wire as the handler runs.
TEST_P(MessageCoreTest, ChunkIsAckedBeforeDelivery) {
  Loopback w(GetParam());
  std::size_t acks_at_delivery = 0;
  w.b.on_message([&](std::uint64_t id, util::Bytes m) {
    acks_at_delivery = w.acks_sent(1).size();
    w.delivered[1].push_back({id, m});
  });
  w.a.send(2, pattern(2 * GetParam().chunk_bytes));
  w.queue.run_until_idle();
  ASSERT_EQ(w.delivered[1].size(), 1u);
  EXPECT_EQ(acks_at_delivery, 2u);
}

TEST_P(MessageCoreTest, DuplicateAfterDeliveryIsAckedNotRedelivered) {
  Loopback w(GetParam());
  w.a.send(3, util::to_bytes("once"));
  w.queue.run_until_idle();
  ASSERT_EQ(w.delivered[1].size(), 1u);
  ASSERT_EQ(w.acks_sent(1).size(), 1u);

  const Chunk dup = w.data_sent(0).front().chunk;
  w.b.handle_chunk(dup.id, dup.seq, dup.total, dup.data);
  w.queue.run_until_idle();
  EXPECT_EQ(w.acks_sent(1).size(), 2u);  // the lost packet may have been the ack
  EXPECT_EQ(w.delivered[1].size(), 1u);
  EXPECT_EQ(w.queue.pending(), 0u);
}

// With every chunk from one side lost, each goes out once and is resent
// MessageCore::kMaxRetransmissions (6) times, `retransmit_after` apart; then
// the engine gives up without telling anyone. This pins today's silent
// abandonment: a change that reports it flips this test on purpose.
TEST_P(MessageCoreTest, RetryBudgetThenSilentAbandonment) {
  Loopback w(GetParam());
  w.drop[0] = true;
  w.a.send(5, pattern(GetParam().chunk_bytes + 1));
  w.queue.run_until_idle();

  const std::vector<Sent> data = w.data_sent(0);
  ASSERT_EQ(data.size(), 2u * 7u);
  for (std::uint16_t seq = 0; seq < 2; ++seq) {
    std::vector<SimTime> times;
    for (const Sent& s : data) {
      if (s.chunk.seq == seq) times.push_back(s.at);
    }
    ASSERT_EQ(times.size(), 7u) << "seq " << seq;
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_EQ(times[i] - times[i - 1], GetParam().retransmit_after) << "resend " << i;
    }
  }
  EXPECT_EQ(w.a.stats().chunks_sent, 2u);
  EXPECT_EQ(w.a.stats().retransmissions, 12u);
  EXPECT_EQ(w.queue.pending(), 0u);
  EXPECT_TRUE(w.delivered[1].empty());
  EXPECT_TRUE(w.acks_sent(1).empty());
}

TEST_P(MessageCoreTest, ShutdownLeavesNoLiveTimer) {
  Loopback w(GetParam());
  w.drop[0] = true;
  w.a.send(6, util::to_bytes("x"));
  w.a.send(7, pattern(2 * GetParam().chunk_bytes));
  EXPECT_EQ(w.queue.pending(), 2u);  // one timer per message
  w.a.shutdown();
  EXPECT_EQ(w.queue.pending(), 0u);
  w.queue.run_until_idle();
  EXPECT_EQ(w.a.stats().retransmissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MessageCoreTest,
                         ::testing::Values(Constants{"tcp", kTcpMss, kTcpDataRto},
                                           Constants{"quic", kQuicMaxPayload, kQuicPto}),
                         [](const ::testing::TestParamInfo<Constants>& p) {
                           return p.param.name;
                         });

}  // namespace
}  // namespace ednsm::transport
