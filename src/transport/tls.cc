#include "transport/tls.h"

#include "dns/wire.h"
#include "obs/trace.h"

namespace ednsm::transport {

namespace {

// Handshake message discriminators inside TlsContentType::Handshake records.
enum class HsType : std::uint8_t {
  ClientHello = 1,
  ServerHelloFinished = 2,  // SH..Fin flight collapsed into one marker
  NewSessionTicket = 4,
  ClientFinished = 20,
};

// Server handshake CPU cost (exponential mean, ms): the full handshake's
// asymmetric crypto, and the PSK path.
constexpr double kTlsHandshakeCpuMs = 0.6;
constexpr double kTlsResumeCpuMs = 0.08;

struct ClientHello {
  TlsMode mode = TlsMode::Full;
  std::string sni;
  std::uint64_t ticket_id = 0;  // valid for Resume/EarlyData
  util::Bytes early_data;

  [[nodiscard]] util::Bytes encode() const {
    dns::WireWriter w;
    w.u8(static_cast<std::uint8_t>(HsType::ClientHello));
    w.u8(static_cast<std::uint8_t>(mode));
    w.u8(static_cast<std::uint8_t>(sni.size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(sni.data()), sni.size()));
    w.u32(static_cast<std::uint32_t>(ticket_id >> 32));
    w.u32(static_cast<std::uint32_t>(ticket_id & 0xffffffffULL));
    w.bytes(early_data);
    return std::move(w).take();
  }

  [[nodiscard]] static Result<ClientHello> decode(std::span<const std::uint8_t> wire) {
    dns::WireReader r(wire);
    ClientHello ch;
    auto hs = r.u8();
    if (!hs || hs.value() != static_cast<std::uint8_t>(HsType::ClientHello)) {
      return Err{std::string("tls: not a ClientHello")};
    }
    auto mode = r.u8();
    if (!mode || mode.value() > 2) return Err{std::string("tls: bad mode")};
    ch.mode = static_cast<TlsMode>(mode.value());
    auto sni_len = r.u8();
    if (!sni_len) return Err{std::string("tls: truncated SNI")};
    auto sni = r.view(sni_len.value());
    if (!sni) return Err{std::string("tls: truncated SNI")};
    ch.sni.assign(reinterpret_cast<const char*>(sni.value().data()), sni.value().size());
    auto hi = r.u32();
    auto lo = r.u32();
    if (!hi || !lo) return Err{std::string("tls: truncated ticket")};
    ch.ticket_id = (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
    auto early = r.bytes(r.remaining());
    if (!early) return Err{std::string("tls: truncated early data")};
    ch.early_data = std::move(early).value();
    return ch;
  }
};

struct ServerFlight {
  bool early_data_accepted = false;
  std::uint64_t ticket_id = 0;
  std::string certificate_name;

  [[nodiscard]] util::Bytes encode() const {
    dns::WireWriter w;
    w.u8(static_cast<std::uint8_t>(HsType::ServerHelloFinished));
    w.u8(early_data_accepted ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(ticket_id >> 32));
    w.u32(static_cast<std::uint32_t>(ticket_id & 0xffffffffULL));
    w.u8(static_cast<std::uint8_t>(certificate_name.size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(certificate_name.data()),
                      certificate_name.size()));
    return std::move(w).take();
  }

  [[nodiscard]] static Result<ServerFlight> decode(std::span<const std::uint8_t> wire) {
    dns::WireReader r(wire);
    ServerFlight sf;
    auto hs = r.u8();
    if (!hs || hs.value() != static_cast<std::uint8_t>(HsType::ServerHelloFinished)) {
      return Err{std::string("tls: not a server flight")};
    }
    auto early = r.u8();
    if (!early) return Err{std::string("tls: truncated server flight")};
    sf.early_data_accepted = early.value() != 0;
    auto hi = r.u32();
    auto lo = r.u32();
    if (!hi || !lo) return Err{std::string("tls: truncated ticket")};
    sf.ticket_id = (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
    auto name_len = r.u8();
    if (!name_len) return Err{std::string("tls: truncated cert name")};
    auto name = r.view(name_len.value());
    if (!name) return Err{std::string("tls: truncated cert name")};
    sf.certificate_name.assign(reinterpret_cast<const char*>(name.value().data()),
                               name.value().size());
    return sf;
  }
};

}  // namespace

// ---- record codec -----------------------------------------------------------

util::Bytes TlsRecord::encode() const {
  dns::WireWriter w;
  w.reserve(21 + payload.size());  // header + payload + AEAD tag
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0x0303);  // legacy_record_version, as TLS 1.3 puts on the wire
  w.u16(static_cast<std::uint16_t>(payload.size() + 16));  // + AEAD tag
  w.bytes(payload);
  for (int i = 0; i < 16; ++i) w.u8(0xAA);  // simulated AEAD tag bytes
  return std::move(w).take();
}

Result<TlsRecord> TlsRecord::decode(std::span<const std::uint8_t> wire) {
  dns::WireReader r(wire);
  TlsRecord rec;
  auto type = r.u8();
  if (!type) return Err{std::string("tls: truncated record")};
  if (type.value() != 21 && type.value() != 22 && type.value() != 23) {
    return Err{std::string("tls: unknown content type")};
  }
  rec.type = static_cast<TlsContentType>(type.value());
  auto version = r.u16();
  if (!version || version.value() != 0x0303) return Err{std::string("tls: bad version")};
  auto len = r.u16();
  if (!len || len.value() < 16) return Err{std::string("tls: bad length")};
  auto body = r.bytes(static_cast<std::size_t>(len.value()) - 16);
  if (!body) return Err{std::string("tls: truncated payload")};
  auto tag = r.bytes(16);
  if (!tag) return Err{std::string("tls: truncated tag")};
  if (!r.at_end()) return Err{std::string("tls: trailing bytes")};
  rec.payload = std::move(body).value();
  return rec;
}

// ---- client ----------------------------------------------------------------

TlsClient::TlsClient(TcpConnection& conn, TlsClientConfig config)
    : conn_(conn), config_(std::move(config)) {
  conn_.on_message([this](std::uint64_t, util::Bytes raw) { handle_message(std::move(raw)); });
}

void TlsClient::handshake(TlsMode mode, std::optional<SessionTicket> ticket,
                          util::Bytes early_data, HandshakeCallback cb) {
  handshake_cb_ = std::move(cb);
  mode_ = mode;
  handshake_started_ = conn_.queue().now();

  if (mode != TlsMode::Full) {
    if (!ticket.has_value() || ticket->server_name != config_.server_name) {
      auto hcb = std::move(handshake_cb_);
      handshake_cb_ = nullptr;
      hcb(Err{std::string("tls: resumption requested without a valid ticket")});
      return;
    }
  }

  ClientHello ch;
  ch.mode = mode;
  ch.sni = config_.server_name;
  ch.ticket_id = ticket.has_value() ? ticket->id : 0;
  if (mode == TlsMode::EarlyData) ch.early_data = std::move(early_data);

  TlsRecord rec;
  rec.type = TlsContentType::Handshake;
  rec.payload = ch.encode();
  conn_.send_message(rec.encode());
}

void TlsClient::send(util::Bytes app_data) {
  TlsRecord rec;
  rec.type = TlsContentType::ApplicationData;
  rec.payload = std::move(app_data);
  conn_.send_message(rec.encode());
}

void TlsClient::on_data(RecordHandler h) {
  on_data_ = std::move(h);
  if (on_data_ && !pending_data_.empty()) {
    std::vector<util::Bytes> drained;
    drained.swap(pending_data_);
    for (util::Bytes& data : drained) on_data_(std::move(data));
  }
}

void TlsClient::handle_message(util::Bytes raw) {
  auto rec_r = TlsRecord::decode(raw);
  if (!rec_r) return;  // garbage record: drop
  TlsRecord& rec = rec_r.value();

  if (rec.type == TlsContentType::Alert) {
    OBS_EVENT(conn_.queue(), "transport", "tls-alert");
    if (handshake_cb_) {
      auto cb = std::move(handshake_cb_);
      handshake_cb_ = nullptr;
      cb(Err{std::string("tls: handshake alert from server")});
    }
    return;
  }

  if (rec.type == TlsContentType::Handshake) {
    auto sf_r = ServerFlight::decode(rec.payload);
    if (!sf_r) return;
    const ServerFlight& sf = sf_r.value();

    if (sf.certificate_name != config_.server_name) {
      if (handshake_cb_) {
        auto cb = std::move(handshake_cb_);
        handshake_cb_ = nullptr;
        cb(Err{std::string("tls: certificate name mismatch (got '") +
               sf.certificate_name + "', wanted '" + config_.server_name + "')"});
      }
      return;
    }

    established_ = true;
    handshake_duration_ = conn_.queue().now() - handshake_started_;
    OBS_COMPLETE(conn_.queue(), "transport", "tls-handshake", handshake_started_,
                 handshake_duration_);
    // Client Finished rides with (or just before) the first app record; send
    // it explicitly so the server-side state machine is honest.
    TlsRecord fin;
    fin.type = TlsContentType::Handshake;
    dns::WireWriter w;
    w.u8(static_cast<std::uint8_t>(HsType::ClientFinished));
    fin.payload = std::move(w).take();
    conn_.send_message(fin.encode());

    if (handshake_cb_) {
      TlsHandshakeInfo info;
      info.mode = mode_;
      info.early_data_accepted = sf.early_data_accepted;
      info.ticket = SessionTicket{sf.ticket_id, config_.server_name};
      auto cb = std::move(handshake_cb_);
      handshake_cb_ = nullptr;
      cb(info);
    }
    return;
  }

  // Application data; buffered if no handler is installed yet.
  if (on_data_) {
    on_data_(std::move(rec.payload));
  } else {
    pending_data_.push_back(std::move(rec.payload));
  }
}

// ---- server ----------------------------------------------------------------

TlsServerSession::TlsServerSession(netsim::EventQueue& queue, netsim::Rng& rng,
                                   TcpServerConn& conn, ServerHandshakeConfig config)
    : queue_(queue),
      rng_(rng),
      conn_(conn),
      config_(std::move(config)),
      next_ticket_id_(rng_.next_u64() | 1) {
  conn_.on_message([this](std::uint64_t, util::Bytes raw) { handle_message(std::move(raw)); });
}

TlsServerSession::~TlsServerSession() { alive_.reset(); }

void TlsServerSession::send(util::Bytes app_data) {
  TlsRecord rec;
  rec.type = TlsContentType::ApplicationData;
  rec.payload = std::move(app_data);
  conn_.send_message(rec.encode());
}

void TlsServerSession::handle_message(util::Bytes raw) {
  auto rec_r = TlsRecord::decode(raw);
  if (!rec_r) return;
  TlsRecord& rec = rec_r.value();

  if (rec.type == TlsContentType::Handshake) {
    if (!rec.payload.empty() &&
        rec.payload[0] == static_cast<std::uint8_t>(HsType::ClientFinished)) {
      return;  // handshake bookkeeping only
    }
    auto ch_r = ClientHello::decode(rec.payload);
    if (!ch_r) return;
    ClientHello& ch = ch_r.value();

    if (config_.handshake_failure_probability > 0.0 &&
        rng_.bernoulli(config_.handshake_failure_probability)) {
      TlsRecord alert;
      alert.type = TlsContentType::Alert;
      alert.payload = {0x02, 0x28};  // fatal, handshake_failure
      conn_.send_message(alert.encode());
      return;
    }

    bool sni_ok = false;
    for (const std::string& name : config_.certificate_names) {
      if (name == ch.sni) {
        sni_ok = true;
        break;
      }
    }
    std::string sni = ch.sni;

    // A PSK requires a ticket; treat ticket 0 as absent and fall back to full.
    TlsMode mode = ch.mode;
    if (mode != TlsMode::Full && ch.ticket_id == 0) mode = TlsMode::Full;

    const double cpu_ms = mode == TlsMode::Full ? rng_.exponential(kTlsHandshakeCpuMs)
                                                : rng_.exponential(kTlsResumeCpuMs);
    util::Bytes early = std::move(ch.early_data);
    queue_.schedule(netsim::from_ms(cpu_ms),
                    [this, alive = std::weak_ptr<bool>(alive_), mode,
                     early = std::move(early), sni_ok, sni = std::move(sni)]() mutable {
                      if (alive.expired()) return;  // session torn down mid-handshake
                      complete_handshake(mode, std::move(early), sni_ok, sni);
                    });
    return;
  }

  if (rec.type == TlsContentType::ApplicationData) {
    if (established_ && on_data_) on_data_(std::move(rec.payload));
    return;
  }
}

void TlsServerSession::complete_handshake(TlsMode mode, util::Bytes early_data, bool sni_ok,
                                          const std::string& sni) {
  ServerFlight sf;
  sf.early_data_accepted =
      mode == TlsMode::EarlyData && config_.accept_early_data && !early_data.empty();
  sf.ticket_id = next_ticket_id_++;
  // On an SNI match the certificate presents the requested name; on a
  // mismatch the client sees the certificate we actually hold and rejects
  // it — mirroring real deployments.
  sf.certificate_name = sni_ok ? sni
                        : config_.certificate_names.empty()
                            ? std::string("invalid.example")
                            : config_.certificate_names.front();

  established_ = true;
  TlsRecord rec;
  rec.type = TlsContentType::Handshake;
  rec.payload = sf.encode();
  conn_.send_message(rec.encode());

  if (sf.early_data_accepted && on_data_) on_data_(std::move(early_data));
}

}  // namespace ednsm::transport
