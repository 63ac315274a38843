#include "dns/message.h"

namespace ednsm::dns {

namespace {

// ---- header flag packing ----------------------------------------------------

std::uint16_t pack_flags(const Header& h) {
  std::uint16_t f = 0;
  if (h.qr) f |= 0x8000;
  f |= static_cast<std::uint16_t>((static_cast<std::uint16_t>(h.opcode) & 0x0f) << 11);
  if (h.aa) f |= 0x0400;
  if (h.tc) f |= 0x0200;
  if (h.rd) f |= 0x0100;
  if (h.ra) f |= 0x0080;
  if (h.ad) f |= 0x0020;
  if (h.cd) f |= 0x0010;
  f |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.rcode) & 0x0f);
  return f;
}

Header unpack_flags(std::uint16_t id, std::uint16_t f) {
  Header h;
  h.id = id;
  h.qr = (f & 0x8000) != 0;
  h.opcode = static_cast<Opcode>((f >> 11) & 0x0f);
  h.aa = (f & 0x0400) != 0;
  h.tc = (f & 0x0200) != 0;
  h.rd = (f & 0x0100) != 0;
  h.ra = (f & 0x0080) != 0;
  h.ad = (f & 0x0020) != 0;
  h.cd = (f & 0x0010) != 0;
  h.rcode = static_cast<Rcode>(f & 0x0f);
  return h;
}

// ---- rdata encoding ---------------------------------------------------------
// CNAME/NS/PTR/MX/SOA/SRV targets are legal compression targets per RFC 1035
// (SRV per RFC 2782 discourages it; we never compress SRV targets).

void write_rdata(WireWriter& w, NameCompressor& comp, const Rdata& rdata) {
  const std::size_t rdlen_at = w.size();
  w.u16(0);  // backpatched
  const std::size_t body_at = w.size();

  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARecord>) {
          w.bytes(r.address);
        } else if constexpr (std::is_same_v<T, AaaaRecord>) {
          w.bytes(r.address);
        } else if constexpr (std::is_same_v<T, CnameRecord>) {
          comp.write(w, r.target);
        } else if constexpr (std::is_same_v<T, NsRecord>) {
          comp.write(w, r.nameserver);
        } else if constexpr (std::is_same_v<T, PtrRecord>) {
          comp.write(w, r.target);
        } else if constexpr (std::is_same_v<T, MxRecord>) {
          w.u16(r.preference);
          comp.write(w, r.exchange);
        } else if constexpr (std::is_same_v<T, TxtRecord>) {
          for (const std::string& s : r.strings) {
            w.u8(static_cast<std::uint8_t>(s.size()));
            w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
          }
        } else if constexpr (std::is_same_v<T, SoaRecord>) {
          comp.write(w, r.mname);
          comp.write(w, r.rname);
          w.u32(r.serial);
          w.u32(r.refresh);
          w.u32(r.retry);
          w.u32(r.expire);
          w.u32(r.minimum);
        } else if constexpr (std::is_same_v<T, SrvRecord>) {
          w.u16(r.priority);
          w.u16(r.weight);
          w.u16(r.port);
          // RFC 2782: target must not be compressed.
          NameCompressor fresh;
          fresh.write(w, r.target);
        } else if constexpr (std::is_same_v<T, OpaqueRdata>) {
          w.bytes(r.data);
        }
      },
      rdata);

  w.patch_u16(rdlen_at, static_cast<std::uint16_t>(w.size() - body_at));
}

// ---- rdata decoding ---------------------------------------------------------

Result<Rdata> read_rdata(WireReader& r, RecordType type, std::uint16_t rdlen) {
  const std::size_t end = r.offset() + rdlen;
  if (end > r.whole().size()) return Err{std::string("message: RDATA overruns message")};

  auto finish = [&](Rdata rd) -> Result<Rdata> {
    if (r.offset() != end) return Err{std::string("message: RDATA length mismatch")};
    return rd;
  };

  switch (type) {
    case RecordType::A: {
      if (rdlen != 4) return Err{std::string("message: A RDATA must be 4 octets")};
      ARecord rec;
      for (auto& b : rec.address) {
        auto v = r.u8();
        if (!v) return Err{v.error()};
        b = v.value();
      }
      return finish(rec);
    }
    case RecordType::AAAA: {
      if (rdlen != 16) return Err{std::string("message: AAAA RDATA must be 16 octets")};
      AaaaRecord rec;
      for (auto& b : rec.address) {
        auto v = r.u8();
        if (!v) return Err{v.error()};
        b = v.value();
      }
      return finish(rec);
    }
    case RecordType::CNAME: {
      auto n = read_name(r);
      if (!n) return Err{n.error()};
      return finish(CnameRecord{std::move(n).value()});
    }
    case RecordType::NS: {
      auto n = read_name(r);
      if (!n) return Err{n.error()};
      return finish(NsRecord{std::move(n).value()});
    }
    case RecordType::PTR: {
      auto n = read_name(r);
      if (!n) return Err{n.error()};
      return finish(PtrRecord{std::move(n).value()});
    }
    case RecordType::MX: {
      MxRecord rec;
      auto pref = r.u16();
      if (!pref) return Err{pref.error()};
      rec.preference = pref.value();
      auto n = read_name(r);
      if (!n) return Err{n.error()};
      rec.exchange = std::move(n).value();
      return finish(std::move(rec));
    }
    case RecordType::TXT: {
      TxtRecord rec;
      while (r.offset() < end) {
        auto len = r.u8();
        if (!len) return Err{len.error()};
        auto data = r.view(len.value());
        if (!data) return Err{std::string("message: truncated TXT string")};
        rec.strings.emplace_back(reinterpret_cast<const char*>(data.value().data()),
                                 data.value().size());
      }
      return finish(std::move(rec));
    }
    case RecordType::SOA: {
      SoaRecord rec;
      auto mname = read_name(r);
      if (!mname) return Err{mname.error()};
      rec.mname = std::move(mname).value();
      auto rname = read_name(r);
      if (!rname) return Err{rname.error()};
      rec.rname = std::move(rname).value();
      for (std::uint32_t* field :
           {&rec.serial, &rec.refresh, &rec.retry, &rec.expire, &rec.minimum}) {
        auto v = r.u32();
        if (!v) return Err{v.error()};
        *field = v.value();
      }
      return finish(std::move(rec));
    }
    case RecordType::SRV: {
      SrvRecord rec;
      for (std::uint16_t* field : {&rec.priority, &rec.weight, &rec.port}) {
        auto v = r.u16();
        if (!v) return Err{v.error()};
        *field = v.value();
      }
      auto n = read_name(r);
      if (!n) return Err{n.error()};
      rec.target = std::move(n).value();
      return finish(std::move(rec));
    }
    default: {
      auto data = r.bytes(rdlen);
      if (!data) return Err{std::string("message: truncated RDATA")};
      return Rdata{OpaqueRdata{std::move(data).value()}};
    }
  }
}

Result<ResourceRecord> read_rr(WireReader& r, std::optional<EdnsInfo>& edns_out) {
  auto name = read_name(r);
  if (!name) return Err{name.error()};
  auto type = r.u16();
  if (!type) return Err{type.error()};
  auto rclass = r.u16();
  if (!rclass) return Err{rclass.error()};
  auto ttl = r.u32();
  if (!ttl) return Err{ttl.error()};
  auto rdlen = r.u16();
  if (!rdlen) return Err{rdlen.error()};

  if (static_cast<RecordType>(type.value()) == RecordType::OPT) {
    if (edns_out.has_value()) return Err{std::string("message: duplicate OPT RR")};
    if (!name.value().is_root()) return Err{std::string("message: OPT owner must be root")};
    auto rdata = r.view(rdlen.value());
    if (!rdata) return Err{std::string("message: truncated OPT RDATA")};
    auto info = parse_opt_rr(rclass.value(), ttl.value(), rdata.value());
    if (!info) return Err{info.error()};
    edns_out = std::move(info).value();
    // Signal "this was the OPT" with a sentinel record the caller drops.
    ResourceRecord sentinel;
    sentinel.type = RecordType::OPT;
    return sentinel;
  }

  ResourceRecord rr;
  rr.name = std::move(name).value();
  rr.type = static_cast<RecordType>(type.value());
  rr.rclass = static_cast<RecordClass>(rclass.value());
  rr.ttl = ttl.value();
  auto rdata = read_rdata(r, rr.type, rdlen.value());
  if (!rdata) return Err{rdata.error()};
  rr.rdata = std::move(rdata).value();
  return rr;
}

void write_rr(WireWriter& w, NameCompressor& comp, const ResourceRecord& rr) {
  comp.write(w, rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type));
  w.u16(static_cast<std::uint16_t>(rr.rclass));
  w.u32(rr.ttl);
  write_rdata(w, comp, rr.rdata);
}

}  // namespace

// ---- message codec --------------------------------------------------------

util::Bytes Message::encode(std::size_t pad_block) const {
  WireWriter w;
  // Most messages (padded queries, few-record responses) fit 256 octets;
  // pre-sizing avoids the doubling reallocations of an empty buffer.
  w.reserve(256);
  NameCompressor comp;

  w.u16(header.id);
  w.u16(pack_flags(header));
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authorities.size()));
  w.u16(static_cast<std::uint16_t>(additionals.size() + (edns.has_value() ? 1 : 0)));

  for (const Question& q : questions) {
    comp.write(w, q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const ResourceRecord& rr : answers) write_rr(w, comp, rr);
  for (const ResourceRecord& rr : authorities) write_rr(w, comp, rr);
  for (const ResourceRecord& rr : additionals) write_rr(w, comp, rr);

  if (edns.has_value()) {
    EdnsInfo info = *edns;
    if (pad_block > 0) info.pad_to_block(w.size(), pad_block);
    write_opt_rr(w, info);
  }
  return std::move(w).take();
}

Result<Message> Message::decode(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  Message m;

  auto id = r.u16();
  if (!id) return Err{std::string("message: truncated header")};
  auto flags = r.u16();
  if (!flags) return Err{std::string("message: truncated header")};
  m.header = unpack_flags(id.value(), flags.value());

  std::uint16_t counts[4];
  for (auto& c : counts) {
    auto v = r.u16();
    if (!v) return Err{std::string("message: truncated header")};
    c = v.value();
  }

  for (std::uint16_t i = 0; i < counts[0]; ++i) {
    Question q;
    auto name = read_name(r);
    if (!name) return Err{name.error()};
    q.qname = std::move(name).value();
    auto qtype = r.u16();
    if (!qtype) return Err{qtype.error()};
    q.qtype = static_cast<RecordType>(qtype.value());
    auto qclass = r.u16();
    if (!qclass) return Err{qclass.error()};
    q.qclass = static_cast<RecordClass>(qclass.value());
    m.questions.push_back(std::move(q));
  }

  auto read_section = [&](std::uint16_t count,
                          std::vector<ResourceRecord>& out) -> Result<void> {
    for (std::uint16_t i = 0; i < count; ++i) {
      auto rr = read_rr(r, m.edns);
      if (!rr) return Err{rr.error()};
      if (rr.value().type == RecordType::OPT && rr.value().name.is_root() &&
          std::holds_alternative<OpaqueRdata>(rr.value().rdata) &&
          std::get<OpaqueRdata>(rr.value().rdata).data.empty()) {
        continue;  // OPT sentinel: captured into m.edns
      }
      out.push_back(std::move(rr).value());
    }
    return {};
  };

  if (auto s = read_section(counts[1], m.answers); !s) return Err{s.error()};
  if (auto s = read_section(counts[2], m.authorities); !s) return Err{s.error()};
  if (auto s = read_section(counts[3], m.additionals); !s) return Err{s.error()};

  if (!r.at_end()) return Err{std::string("message: trailing bytes")};
  return m;
}

Message make_query(std::uint16_t id, const Name& qname, RecordType qtype, bool dnssec_ok) {
  Message m;
  m.header.id = id;
  m.header.rd = true;
  m.questions.push_back(Question{qname, qtype, RecordClass::IN});
  EdnsInfo edns;
  edns.dnssec_ok = dnssec_ok;
  m.edns = edns;
  return m;
}

Message make_response(const Message& query, Rcode rcode, std::vector<ResourceRecord> answers) {
  Message m;
  m.header = query.header;
  m.header.qr = true;
  m.header.ra = true;
  m.header.rcode = rcode;
  m.questions = query.questions;
  m.answers = std::move(answers);
  if (query.edns.has_value()) {
    EdnsInfo edns;
    edns.udp_payload_size = 1232;
    m.edns = edns;
  }
  return m;
}

}  // namespace ednsm::dns
