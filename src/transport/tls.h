// TLS 1.3 session simulation over the message-level TCP layer.
//
// Faithful parts: the handshake costs exactly one round trip before
// application data flows (full and PSK-resumed modes), 0-RTT early data
// rides with the ClientHello, the server charges asymmetric-crypto CPU time
// on full handshakes, tickets enable resumption, SNI is carried and verified
// against the server's certificate names, and record framing adds the real
// 5-byte header + 16-byte AEAD tag to every record's wire size.
//
// Not implemented (documented substitution): actual cryptography. Records are
// framed but not encrypted — the toolkit measures timing and availability,
// not confidentiality, and the simulated adversary model doesn't exist.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "netsim/time.h"
#include "transport/tcp.h"
#include "util/result.h"

namespace ednsm::transport {

enum class TlsMode : std::uint8_t {
  Full = 0,       // fresh handshake: 1 RTT + full server crypto
  Resume = 1,     // PSK resumption: 1 RTT, cheap crypto
  EarlyData = 2,  // PSK + 0-RTT: application data in the first flight
};

struct SessionTicket {
  std::uint64_t id = 0;
  std::string server_name;  // ticket is only valid for the issuing server

  [[nodiscard]] bool operator==(const SessionTicket&) const = default;
};

struct TlsHandshakeInfo {
  TlsMode mode = TlsMode::Full;
  bool early_data_accepted = false;
  std::optional<SessionTicket> ticket;  // issued by the server for next time
};

// TLS record framing (content type + length; AEAD tag accounted in size).
enum class TlsContentType : std::uint8_t {
  Handshake = 22,
  ApplicationData = 23,
  Alert = 21,
};

struct TlsRecord {
  TlsContentType type = TlsContentType::Handshake;
  util::Bytes payload;

  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static Result<TlsRecord> decode(std::span<const std::uint8_t> wire);
};

inline constexpr std::size_t kTlsRecordOverhead = 5 + 16;  // header + AEAD tag

// ---- client ----------------------------------------------------------------

struct TlsClientConfig {
  std::string server_name;  // SNI; must match a certificate name on the server
};

class TlsClient {
 public:
  using HandshakeCallback = std::function<void(Result<TlsHandshakeInfo>)>;
  using RecordHandler = std::function<void(util::Bytes)>;

  // The client does not own the TCP connection (the pool does).
  TlsClient(TcpConnection& conn, TlsClientConfig config);

  // Start the handshake; `ticket` is required for Resume/EarlyData, and
  // `early_data` only meaningful with EarlyData. Callback fires exactly once.
  void handshake(TlsMode mode, std::optional<SessionTicket> ticket,
                 util::Bytes early_data, HandshakeCallback cb);

  // Send application data (only after the handshake completed).
  void send(util::Bytes app_data);

  // Records that arrive while no handler is installed (e.g. a 0-RTT response
  // racing the handshake-completion callback under reordering) are buffered
  // and flushed when the handler is set.
  void on_data(RecordHandler h);

  [[nodiscard]] bool established() const noexcept { return established_; }

  // Phase stamp: ClientHello sent -> ServerFlight accepted (zero until
  // established). Feeds QueryTiming::tls_handshake through the pool lease.
  [[nodiscard]] netsim::SimDuration handshake_duration() const noexcept {
    return handshake_duration_;
  }

 private:
  void handle_message(util::Bytes raw);

  TcpConnection& conn_;
  TlsClientConfig config_;
  HandshakeCallback handshake_cb_;
  RecordHandler on_data_;
  TlsMode mode_ = TlsMode::Full;
  bool established_ = false;
  netsim::SimTime handshake_started_{0};
  netsim::SimDuration handshake_duration_{0};
  std::vector<util::Bytes> pending_data_;  // records received before on_data()
};

// ---- server ----------------------------------------------------------------

// Wraps one accepted TCP server connection; answers handshakes and delivers
// decrypted application data. The resolver server owns one per connection.
class TlsServerSession {
 public:
  using DataHandler = std::function<void(util::Bytes)>;

  TlsServerSession(netsim::EventQueue& queue, netsim::Rng& rng, TcpServerConn& conn,
                   ServerHandshakeConfig config);
  ~TlsServerSession();

  void on_data(DataHandler h) { on_data_ = std::move(h); }
  void send(util::Bytes app_data);

  [[nodiscard]] bool established() const noexcept { return established_; }

 private:
  void handle_message(util::Bytes raw);
  void complete_handshake(TlsMode mode, util::Bytes early_data, bool sni_ok,
                          const std::string& sni);

  netsim::EventQueue& queue_;
  netsim::Rng& rng_;
  TcpServerConn& conn_;
  ServerHandshakeConfig config_;
  DataHandler on_data_;
  bool established_ = false;
  std::uint64_t next_ticket_id_;
  // Guards the deferred handshake-completion event against session teardown.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace ednsm::transport
