#include "resolver/registry.h"

#include <algorithm>
#include <stdexcept>

#include "geo/vantage.h"
#include "util/strings.h"

namespace ednsm::resolver {

namespace c = geo::city;
using geo::Continent;

namespace {

// Terse spec builders ---------------------------------------------------------

ResolverSpec make(std::string hostname, Continent continent, std::string city,
                  geo::GeoPoint location, OperatorTier tier) {
  ResolverSpec s;
  s.hostname = std::move(hostname);
  s.continent = continent;
  s.city = city;
  s.location = location;
  s.tier = tier;
  s.sites = {AnycastSite{std::move(city), location}};
  return s;
}

ResolverSpec mainstream_global(std::string hostname, std::string city, geo::GeoPoint location) {
  ResolverSpec s = make(std::move(hostname), Continent::NorthAmerica, std::move(city),
                        location, OperatorTier::Hyperscale);
  s.mainstream = true;
  s.footprint = Footprint::GlobalAnycast;
  s.sites = global_anycast_sites();
  s.home_extra_ms = 1.2;  // reached off-net from residential ISPs
  return s;
}

netsim::PathQuirk jitter_quirk(double probability, double scale_ms, double alpha) {
  netsim::PathQuirk q;
  q.extra_jitter_probability = probability;
  q.extra_jitter_scale = scale_ms;
  q.extra_jitter_alpha = alpha;
  return q;
}

netsim::PathQuirk base_quirk(double extra_base_ms) {
  netsim::PathQuirk q;
  q.extra_base_ms = extra_base_ms;
  return q;
}

std::vector<ResolverSpec> build_list() {
  std::vector<ResolverSpec> r;
  r.reserve(80);

  // ---- Mainstream (Table 1), globally anycast --------------------------------
  r.push_back(mainstream_global("dns.google", "Mountain View", c::kSanFrancisco));
  r.push_back(mainstream_global("security.cloudflare-dns.com", "San Francisco", c::kSanFrancisco));
  r.push_back(mainstream_global("family.cloudflare-dns.com", "San Francisco", c::kSanFrancisco));
  r.push_back(mainstream_global("1dot1dot1dot1.cloudflare-dns.com", "San Francisco", c::kSanFrancisco));
  r.push_back(mainstream_global("dns.quad9.net", "Berkeley", c::kSanFrancisco));
  r.push_back(mainstream_global("dns9.quad9.net", "Berkeley", c::kSanFrancisco));
  r.push_back(mainstream_global("dns.nextdns.io", "New York", c::kNewYork));
  r.push_back(mainstream_global("anycast.dns.nextdns.io", "New York", c::kNewYork));
  // Quad9's numbered variants are operated from Zurich and geolocate to
  // Europe (they appear in the paper's Europe figures).
  for (const char* host : {"dns10.quad9.net", "dns11.quad9.net", "dns12.quad9.net"}) {
    ResolverSpec s = mainstream_global(host, "Zurich", c::kZurich);
    s.continent = Continent::Europe;
    r.push_back(std::move(s));
  }

  // ---- North America, non-mainstream -----------------------------------------
  {
    // Hurricane Electric: ISP backbone, hyperscale-grade operation, and —
    // decisively for the home vantage — it is upstream transit for many
    // access ISPs, so no off-net penalty.
    ResolverSpec s = make("ordns.he.net", Continent::NorthAmerica, "Fremont", c::kFremont,
                          OperatorTier::Managed);
    s.footprint = Footprint::IspBackbone;
    s.sites = isp_backbone_sites();
    s.processing_mu = -1.5;
    s.warm_cache = 0.96;
    s.home_extra_ms = 0.0;
    r.push_back(std::move(s));
  }
  {
    // ControlD: regional anycast with strong Midwest peering (the paper sees
    // it outperform Google/Cloudflare from the Ohio EC2 vantage).
    ResolverSpec s = make("freedns.controld.com", Continent::NorthAmerica, "Toronto",
                          c::kToronto, OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"Toronto", c::kToronto},   {"Chicago", c::kChicago},
               {"Ashburn", c::kAshburn},   {"Los Angeles", c::kLosAngeles},
               {"Amsterdam", c::kAmsterdam}, {"London", c::kLondon}};
    s.processing_mu = -1.7;
    s.warm_cache = 0.95;
    s.quirks.push_back({"ec2-ohio", base_quirk(-1.5)});  // peering advantage
    r.push_back(std::move(s));
  }
  {
    ResolverSpec s = make("doh.mullvad.net", Continent::NorthAmerica, "New York", c::kNewYork,
                          OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"New York", c::kNewYork},   {"Los Angeles", c::kLosAngeles},
               {"Stockholm", c::kStockholm}, {"Frankfurt", c::kFrankfurt},
               {"Sydney", c::kSydney}};
    r.push_back(s);
    s.hostname = "adblock.doh.mullvad.net";
    r.push_back(std::move(s));
  }
  for (const char* host :
       {"kronos.plan9-dns.com", "helios.plan9-dns.com", "pluton.plan9-dns.com"}) {
    r.push_back(make(host, Continent::NorthAmerica, "Dallas", c::kDallas,
                     OperatorTier::Hobbyist));
  }
  r.push_back(make("dohtrial.att.net", Continent::NorthAmerica, "Dallas", c::kDallas,
                   OperatorTier::Managed));
  r.push_back(make("doh.safesurfer.io", Continent::NorthAmerica, "Seattle", c::kSeattle,
                   OperatorTier::Hobbyist));
  {
    // §4: "doh.la.ahadns.net has significant response times and variability
    // in the home network measurements, but very little in the EC2 ones."
    ResolverSpec s = make("doh.la.ahadns.net", Continent::NorthAmerica, "Los Angeles",
                          c::kLosAngeles, OperatorTier::Hobbyist);
    s.quirks.push_back({"home", jitter_quirk(0.5, 30.0, 1.4)});
    r.push_back(std::move(s));
  }
  // ODoH targets: the oblivious relay adds a fixed hop on the DNS path only
  // (pings still take the direct path), which is why the paper's Figure 1
  // shows their response boxes far to the right of their ping boxes.
  for (const char* host :
       {"odoh-target.alekberg.net", "odoh-target-noads.alekberg.net",
        "odoh-target-se.alekberg.net", "odoh-target-noads-se.alekberg.net"}) {
    ResolverSpec s =
        make(host, Continent::NorthAmerica, "New York", c::kNewYork, OperatorTier::Hobbyist);
    s.odoh_target = true;
    r.push_back(std::move(s));
  }

  // ---- Europe ----------------------------------------------------------------
  for (const char* host :
       {"dns.adguard.com", "dns-unfiltered.adguard.com", "dns-family.adguard.com"}) {
    ResolverSpec s =
        make(host, Continent::Europe, "Frankfurt", c::kFrankfurt, OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = regional_anycast_sites();
    r.push_back(std::move(s));
  }
  {
    // dns0.eu: French public resolver, EU-only anycast — very fast from
    // Frankfurt, an ocean away from Seoul (Table 3).
    ResolverSpec base = make("dns0.eu", Continent::Europe, "Paris", c::kParis,
                             OperatorTier::Managed);
    base.footprint = Footprint::RegionalAnycast;
    base.sites = {{"Paris", c::kParis},
                  {"Frankfurt", c::kFrankfurt},
                  {"Amsterdam", c::kAmsterdam},
                  {"Warsaw", c::kWarsaw}};
    for (const char* host : {"dns0.eu", "open.dns0.eu", "kids.dns0.eu"}) {
      ResolverSpec s = base;
      s.hostname = host;
      r.push_back(std::move(s));
    }
  }
  {
    // §4: dns.brahma.world outperforms Cloudflare from Frankfurt.
    ResolverSpec s = make("dns.brahma.world", Continent::Europe, "Frankfurt", c::kFrankfurt,
                          OperatorTier::Managed);
    s.processing_mu = -1.8;
    s.warm_cache = 0.93;
    s.quirks.push_back({"ec2-frankfurt", base_quirk(-1.0)});
    r.push_back(std::move(s));
  }
  {
    ResolverSpec s = make("anycast.uncensoreddns.org", Continent::Europe, "Copenhagen",
                          c::kCopenhagen, OperatorTier::Hobbyist);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"Copenhagen", c::kCopenhagen}, {"Amsterdam", c::kAmsterdam}};
    r.push_back(std::move(s));
  }
  r.push_back(make("unicast.uncensoreddns.org", Continent::Europe, "Copenhagen",
                   c::kCopenhagen, OperatorTier::Hobbyist));
  r.push_back(make("doh.ffmuc.net", Continent::Europe, "Munich", c::kMunich,
                   OperatorTier::Hobbyist));
  r.push_back(make("dns1.ryan-palmer.com", Continent::Europe, "London", c::kLondon,
                   OperatorTier::Hobbyist));
  r.push_back(make("dns.digitale-gesellschaft.ch", Continent::Europe, "Zurich", c::kZurich,
                   OperatorTier::Hobbyist));
  r.push_back(make("doh.libredns.gr", Continent::Europe, "Athens", c::kAthens,
                   OperatorTier::Hobbyist));
  r.push_back(make("dns.switch.ch", Continent::Europe, "Zurich", c::kZurich,
                   OperatorTier::Managed));
  r.push_back(make("dns-doh-no-safe-search.dnsforfamily.com", Continent::Europe, "Warsaw",
                   c::kWarsaw, OperatorTier::Hobbyist));
  r.push_back(make("dns-doh.dnsforfamily.com", Continent::Europe, "Warsaw", c::kWarsaw,
                   OperatorTier::Hobbyist));
  r.push_back(make("ibksturm.synology.me", Continent::Europe, "Zurich", c::kZurich,
                   OperatorTier::Hobbyist));
  r.push_back(make("dnsforge.de", Continent::Europe, "Berlin", c::kBerlin,
                   OperatorTier::Hobbyist));
  r.push_back(make("v.dnscrypt.uk", Continent::Europe, "London", c::kLondon,
                   OperatorTier::Hobbyist));
  r.push_back(make("doh.dnscrypt.uk", Continent::Europe, "London", c::kLondon,
                   OperatorTier::Hobbyist));
  r.push_back(make("doh.sb", Continent::Europe, "Amsterdam", c::kAmsterdam,
                   OperatorTier::Managed));
  r.push_back(make("dns.njal.la", Continent::Europe, "Stockholm", c::kStockholm,
                   OperatorTier::Hobbyist));
  r.push_back(make("dns.digitalsize.net", Continent::Europe, "London", c::kLondon,
                   OperatorTier::Hobbyist));
  r.push_back(make("doh.nl.ahadns.net", Continent::Europe, "Amsterdam", c::kAmsterdam,
                   OperatorTier::Hobbyist));
  r.push_back(make("dnsse.alekberg.net", Continent::Europe, "Stockholm", c::kStockholm,
                   OperatorTier::Hobbyist));
  r.push_back(make("dnsse-noads.alekberg.net", Continent::Europe, "Stockholm", c::kStockholm,
                   OperatorTier::Hobbyist));
  r.push_back(make("dnsnl.alekberg.net", Continent::Europe, "Amsterdam", c::kAmsterdam,
                   OperatorTier::Hobbyist));
  r.push_back(make("dnsnl-noads.alekberg.net", Continent::Europe, "Amsterdam", c::kAmsterdam,
                   OperatorTier::Hobbyist));
  r.push_back(make("dns.circl.lu", Continent::Europe, "Luxembourg", c::kLuxembourg,
                   OperatorTier::Managed));

  // ---- Asia ------------------------------------------------------------------
  {
    // AliDNS: Asian anycast with a Seoul-adjacent presence — the paper sees
    // it beat every mainstream resolver from the Seoul vantage.
    ResolverSpec s = make("dns.alidns.com", Continent::Asia, "Hangzhou", c::kHangzhou,
                          OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"Hangzhou", c::kHangzhou},
               {"Hong Kong", c::kHongKong},
               {"Singapore", c::kSingapore},
               {"Seoul", c::kSeoul}};
    s.processing_mu = -1.6;
    s.warm_cache = 0.96;
    // Domestic-peering advantage from the Seoul vantage (the paper observes
    // AliDNS beating every mainstream resolver from Seoul).
    s.quirks.push_back({"ec2-seoul", base_quirk(-1.2)});
    r.push_back(std::move(s));
  }
  {
    ResolverSpec s =
        make("doh.pub", Continent::Asia, "Beijing", c::kBeijing, OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"Beijing", c::kBeijing}, {"Hong Kong", c::kHongKong}};
    r.push_back(std::move(s));
  }
  {
    ResolverSpec s =
        make("doh.360.cn", Continent::Asia, "Beijing", c::kBeijing, OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"Beijing", c::kBeijing}, {"Hong Kong", c::kHongKong}};
    r.push_back(std::move(s));
  }
  r.push_back(make("public.dns.iij.jp", Continent::Asia, "Tokyo", c::kTokyo,
                   OperatorTier::Managed));
  {
    // §4: dns.twnic.tw — high ping *and* response times from the home
    // devices, low and stable from EC2: a path quirk, not a server quirk.
    // TWNIC's Quad101 service has a modest anycast footprint with a US
    // west-coast presence, which keeps its EC2 numbers unremarkable.
    ResolverSpec s =
        make("dns.twnic.tw", Continent::Asia, "Taipei", c::kTaipei, OperatorTier::Managed);
    s.footprint = Footprint::RegionalAnycast;
    s.sites = {{"Taipei", c::kTaipei}, {"Los Angeles", c::kLosAngeles}};
    s.quirks.push_back({"home", [] {
                          netsim::PathQuirk q = jitter_quirk(0.3, 20.0, 1.6);
                          q.extra_base_ms = 45.0;
                          return q;
                        }()});
    r.push_back(std::move(s));
  }
  {
    // §4: antivirus.bebasid.com — high variability from the Ohio and
    // Frankfurt EC2 instances, but low variability from the home devices.
    ResolverSpec s = make("antivirus.bebasid.com", Continent::Asia, "Jakarta", c::kJakarta,
                          OperatorTier::Hobbyist);
    s.quirks.push_back({"ec2-ohio", jitter_quirk(0.4, 50.0, 1.5)});
    s.quirks.push_back({"ec2-frankfurt", jitter_quirk(0.4, 50.0, 1.5)});
    r.push_back(std::move(s));
  }
  r.push_back(make("dns.bebasid.com", Continent::Asia, "Jakarta", c::kJakarta,
                   OperatorTier::Hobbyist));
  r.push_back(make("jp-tiar.app", Continent::Asia, "Tokyo", c::kTokyo, OperatorTier::Hobbyist));
  r.push_back(make("doh.tiar.app", Continent::Asia, "Singapore", c::kSingapore,
                   OperatorTier::Hobbyist));
  r.push_back(make("dnslow.me", Continent::Asia, "Tokyo", c::kTokyo, OperatorTier::Hobbyist));
  r.push_back(make("dns.therifleman.name", Continent::Asia, "Mumbai", c::kMumbai,
                   OperatorTier::Hobbyist));
  r.push_back(make("pdns.itxe.net", Continent::Asia, "Jakarta", c::kJakarta,
                   OperatorTier::Hobbyist));
  r.push_back(make("sby-doh.limotelu.org", Continent::Asia, "Surabaya",
                   geo::GeoPoint{-7.25, 112.75}, OperatorTier::Hobbyist));

  // ---- Oceania (measured; not shown in the paper's per-region figures) -------
  r.push_back(make("adl.adfilter.net", Continent::Oceania, "Adelaide", c::kAdelaide,
                   OperatorTier::Hobbyist));
  r.push_back(make("per.adfilter.net", Continent::Oceania, "Perth", c::kPerth,
                   OperatorTier::Hobbyist));
  r.push_back(make("syd.adfilter.net", Continent::Oceania, "Sydney", c::kSydney,
                   OperatorTier::Hobbyist));
  r.push_back(make("doh.seby.io", Continent::Oceania, "Sydney", c::kSydney,
                   OperatorTier::Hobbyist));
  r.push_back(make("doh-2.seby.io", Continent::Oceania, "Sydney", c::kSydney,
                   OperatorTier::Hobbyist));

  // ---- No geolocation ("6 resolvers were unable to return a location") -------
  // These still exist somewhere; the simulator places them, but the GeoDb
  // refuses to answer for them, exactly like the paper's GeoLite2 lookups.
  {
    ResolverSpec s = make("chewbacca.meganerd.nl", Continent::Unknown, "Amsterdam",
                          c::kAmsterdam, OperatorTier::Hobbyist);
    r.push_back(std::move(s));
  }
  {
    ResolverSpec base = make("puredns.org", Continent::Unknown, "Nicosia",
                             geo::GeoPoint{35.17, 33.36}, OperatorTier::Managed);
    base.footprint = Footprint::RegionalAnycast;
    base.sites = {{"Nicosia", geo::GeoPoint{35.17, 33.36}},
                  {"Frankfurt", c::kFrankfurt},
                  {"New York", c::kNewYork}};
    r.push_back(base);
    base.hostname = "family.puredns.org";
    r.push_back(std::move(base));
  }

  // ICMP-filtered operators (the paper: "certain resolvers did not respond
  // to our ICMP ping probes").
  for (ResolverSpec& s : r) {
    static const char* kNoPing[] = {"doh.seby.io",        "doh-2.seby.io",
                                    "puredns.org",        "family.puredns.org",
                                    "chewbacca.meganerd.nl", "pdns.itxe.net",
                                    "dns.therifleman.name"};
    for (const char* host : kNoPing) {
      if (s.hostname == host) s.icmp_responder = false;
    }
    if (s.odoh_target) s.footprint = Footprint::Unicast;
  }
  return r;
}

}  // namespace

const std::vector<ResolverSpec>& paper_resolver_list() {
  static const std::vector<ResolverSpec> kList = build_list();
  return kList;
}

const ResolverSpec* find_resolver(std::string_view hostname) {
  for (const ResolverSpec& s : paper_resolver_list()) {
    if (s.hostname == hostname) return &s;
  }
  return nullptr;
}

std::vector<std::string> mainstream_hostnames() {
  std::vector<std::string> out;
  for (const ResolverSpec& s : paper_resolver_list()) {
    if (s.mainstream) out.push_back(s.hostname);
  }
  return out;
}

ServerBehavior behavior_for_tier(OperatorTier tier) {
  ServerBehavior b;
  switch (tier) {
    case OperatorTier::Hyperscale:
      b.processing_mu = -1.6;
      b.processing_sigma = 0.3;
      b.load_spike_probability = 0.002;
      b.load_spike_scale_ms = 5.0;
      b.upstream.authority_rtt_mu = 2.5;
      b.upstream.authority_rtt_sigma = 0.5;
      b.upstream.servfail_probability = 0.0005;
      b.connect_drop_probability = 0.0015;
      b.connect_refuse_probability = 0.0002;
      b.tls_failure_probability = 0.0002;
      b.http_error_probability = 0.0005;
      b.warm_cache_probability = 0.97;
      break;
    case OperatorTier::Managed:
      b.processing_mu = -0.5;
      b.processing_sigma = 0.5;
      b.load_spike_probability = 0.01;
      b.load_spike_scale_ms = 10.0;
      b.upstream.authority_rtt_mu = 3.0;
      b.upstream.authority_rtt_sigma = 0.6;
      b.upstream.servfail_probability = 0.002;
      b.connect_drop_probability = 0.01;
      b.connect_refuse_probability = 0.002;
      b.tls_failure_probability = 0.002;
      b.http_error_probability = 0.002;
      b.warm_cache_probability = 0.9;
      break;
    case OperatorTier::Hobbyist:
      b.processing_mu = 0.3;
      b.processing_sigma = 0.8;
      b.load_spike_probability = 0.05;
      b.load_spike_scale_ms = 15.0;
      b.load_spike_alpha = 1.6;
      b.upstream.authority_rtt_mu = 3.4;
      b.upstream.authority_rtt_sigma = 0.7;
      b.upstream.servfail_probability = 0.006;
      b.connect_drop_probability = 0.035;
      b.connect_refuse_probability = 0.008;
      b.tls_failure_probability = 0.006;
      b.http_error_probability = 0.006;
      b.warm_cache_probability = 0.72;
      break;
  }
  return b;
}

geo::GeoDb build_geodb() {
  geo::GeoDb db;
  for (const ResolverSpec& s : paper_resolver_list()) {
    geo::GeoRecord rec;
    rec.city = s.city;
    rec.continent = s.continent;
    rec.point = s.location;
    db.add(s.hostname, rec);
  }
  return db;
}

// ---- fleet ------------------------------------------------------------------

ResolverFleet::ResolverFleet(netsim::Network& net, const std::vector<ResolverSpec>& specs,
                             const std::vector<std::string>& measured)
    : net_(net) {
  std::vector<std::string_view> wanted(measured.begin(), measured.end());
  std::sort(wanted.begin(), wanted.end());
  specs_.reserve(std::min(specs.size(), wanted.size()));
  entries_.reserve(specs_.capacity());
  for (const ResolverSpec& spec : specs) {
    ServerBehavior behavior = behavior_for_tier(spec.tier);
    if (spec.processing_mu.has_value()) behavior.processing_mu = *spec.processing_mu;
    if (spec.warm_cache.has_value()) behavior.warm_cache_probability = *spec.warm_cache;
    if (spec.odoh_target) behavior.extra_response_ms = 25.0;

    if (!std::binary_search(wanted.begin(), wanted.end(), std::string_view(spec.hostname))) {
      for (std::size_t i = 0; i < spec.sites.size(); ++i) ResolverServer::skip(net_, behavior);
      continue;
    }
    Entry entry{spec.sites.size() > 1 ? Deployment::anycast(spec.sites)
                                      : Deployment::unicast(spec.sites.front()),
                {}};
    for (const AnycastSite& site : entry.deployment.sites()) {
      auto server = std::make_unique<ResolverServer>(net_, spec.hostname, site, behavior);
      net_.set_icmp_responder(server->address(), spec.icmp_responder);
      entry.servers.push_back(std::move(server));
    }
    specs_.push_back(spec);
    entries_.push_back(std::move(entry));
  }
}

const ResolverFleet::Entry* ResolverFleet::find(std::string_view hostname) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].hostname == hostname) return &entries_[i];
  }
  return nullptr;
}

std::optional<netsim::IpAddr> ResolverFleet::address_for(std::string_view hostname,
                                                         const geo::GeoPoint& from) const {
  const Entry* entry = find(hostname);
  if (entry == nullptr) return std::nullopt;
  const AnycastSite& site = entry->deployment.site_for(from);
  for (const auto& server : entry->servers) {
    if (server->site().city == site.city) return server->address();
  }
  return std::nullopt;
}

std::vector<const ResolverServer*> ResolverFleet::sites_of(std::string_view hostname) const {
  std::vector<const ResolverServer*> out;
  if (const Entry* entry = find(hostname)) {
    for (const auto& server : entry->servers) out.push_back(server.get());
  }
  return out;
}

void ResolverFleet::apply_quirks(netsim::IpAddr client, std::string_view vantage_id) {
  const geo::VantagePoint& vp = geo::vantage_by_id(vantage_id);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const ResolverSpec& spec = specs_[i];
    netsim::PathQuirk combined;
    bool any = false;
    if (vp.is_home() && spec.home_extra_ms != 0.0) {
      combined.extra_base_ms += spec.home_extra_ms;
      any = true;
    }
    for (const VantageQuirkSpec& q : spec.quirks) {
      if (util::starts_with(vantage_id, q.vantage_prefix)) {
        combined.extra_base_ms += q.quirk.extra_base_ms;
        combined.extra_jitter_probability =
            std::max(combined.extra_jitter_probability, q.quirk.extra_jitter_probability);
        combined.extra_jitter_scale =
            std::max(combined.extra_jitter_scale, q.quirk.extra_jitter_scale);
        combined.extra_jitter_alpha = q.quirk.extra_jitter_alpha;
        combined.extra_loss += q.quirk.extra_loss;
        any = true;
      }
    }
    if (!any) continue;
    for (const auto& server : entries_[i].servers) {
      net_.set_quirk(client, server->address(), combined);
    }
  }
}

void ResolverFleet::set_offline(std::string_view hostname, bool offline) {
  const Entry* entry = find(hostname);
  if (entry == nullptr) return;
  for (const auto& server : entry->servers) {
    ServerBehavior behavior = server->behavior();
    behavior.offline = offline;
    server->set_behavior(behavior);
  }
}

ServerQueryStats ResolverFleet::stats_of(std::string_view hostname) const {
  ServerQueryStats total;
  for (const ResolverServer* s : sites_of(hostname)) total += s->stats();
  return total;
}

}  // namespace ednsm::resolver
