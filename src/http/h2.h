// HTTP/2 framing (RFC 9113) — the subset a DoH exchange uses.
//
// Frame codec for DATA, HEADERS, RST_STREAM, SETTINGS, PING, GOAWAY and
// WINDOW_UPDATE, plus client/server connection state machines that multiplex
// requests over odd-numbered streams with HPACK header compression. CONTINUATION
// is unnecessary because our header blocks are far below the frame size limit;
// PUSH_PROMISE and priorities are not used by DoH.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "http/h1.h"  // shared Request/Response representation
#include "http/hpack.h"
#include "netsim/time.h"
#include "util/result.h"

namespace ednsm::http {

enum class FrameType : std::uint8_t {
  Data = 0x0,
  Headers = 0x1,
  RstStream = 0x3,
  Settings = 0x4,
  Ping = 0x6,
  GoAway = 0x7,
  WindowUpdate = 0x8,
};

inline constexpr std::uint8_t kFlagEndStream = 0x1;
inline constexpr std::uint8_t kFlagEndHeaders = 0x4;
inline constexpr std::uint8_t kFlagAck = 0x1;  // SETTINGS/PING

struct Frame {
  FrameType type = FrameType::Data;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  util::Bytes payload;

  [[nodiscard]] util::Bytes encode() const;
};

// Parse a byte run into consecutive frames (fails on a partial trailing frame:
// the simulated TCP layer delivers whole messages, so partials are bugs).
[[nodiscard]] Result<std::vector<Frame>> decode_frames(std::span<const std::uint8_t> wire);

// The connection preface a client must send first (RFC 9113 §3.4).
[[nodiscard]] std::span<const std::uint8_t> client_preface() noexcept;

// ---- client session ---------------------------------------------------------

// Serializes requests into frame runs and reassembles responses. One session
// per TLS connection; stream ids advance 1, 3, 5, ...
class H2ClientSession {
 public:
  using ResponseHandler = std::function<void(std::uint32_t stream_id, Result<Response>)>;

  // Frame run for one request. The first call prepends preface + SETTINGS.
  [[nodiscard]] util::Bytes serialize_request(const Request& req, std::uint32_t& stream_id_out);

  // Feed bytes from the server; fires the handler for each completed stream.
  void feed(std::span<const std::uint8_t> wire, const ResponseHandler& on_response);

  // Exchange stamping for QueryTiming::exchange: record when the frames for
  // `stream_id` were handed to the transport; `finish_exchange` returns the
  // request->response duration and forgets the stamp (zero if never stamped).
  void stamp_request(std::uint32_t stream_id, netsim::SimTime now);
  [[nodiscard]] netsim::SimDuration finish_exchange(std::uint32_t stream_id, netsim::SimTime now);

 private:
  struct PendingStream {
    std::optional<Response> response;
    util::Bytes body;
    bool headers_done = false;
  };

  hpack::Encoder encoder_;
  hpack::Decoder decoder_;
  std::uint32_t next_stream_id_ = 1;
  bool preface_sent_ = false;
  std::vector<std::pair<std::uint32_t, PendingStream>> streams_;
  std::vector<std::pair<std::uint32_t, netsim::SimTime>> request_stamps_;
};

// ---- server session ---------------------------------------------------------

class H2ServerSession {
 public:
  using RequestHandler = std::function<void(std::uint32_t stream_id, Result<Request>)>;

  // Feed bytes from the client; fires the handler per completed request.
  // Handles the preface and answers SETTINGS with an ack in `serialize` calls.
  void feed(std::span<const std::uint8_t> wire, const RequestHandler& on_request);

  // Frame run answering `stream_id`. Includes the pending SETTINGS ack if due.
  [[nodiscard]] util::Bytes serialize_response(std::uint32_t stream_id, const Response& resp);

 private:
  hpack::Encoder encoder_;
  hpack::Decoder decoder_;
  bool preface_seen_ = false;
  bool settings_ack_due_ = false;
  std::vector<std::pair<std::uint32_t, Request>> partial_;  // HEADERS seen, DATA pending
};

}  // namespace ednsm::http
