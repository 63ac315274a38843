// Anycast deployment model.
//
// Mainstream resolvers (Cloudflare, Google, Quad9, ...) announce one address
// from dozens of sites; BGP delivers a client to (approximately) the nearest
// one. Non-mainstream resolvers are typically a single unicast site — the
// paper's central finding is that this difference drives the response-time
// gap for distant vantage points. site_for() picks the geographically
// nearest site, which is the standard first-order approximation of anycast
// catchment.
#pragma once

#include <string>
#include <vector>

#include "geo/coords.h"

namespace ednsm::resolver {

struct AnycastSite {
  std::string city;
  geo::GeoPoint location;
};

class Deployment {
 public:
  // Unicast: exactly one site.
  [[nodiscard]] static Deployment unicast(AnycastSite site);

  // Anycast over the given sites (>= 2).
  [[nodiscard]] static Deployment anycast(std::vector<AnycastSite> sites);

  [[nodiscard]] const std::vector<AnycastSite>& sites() const noexcept { return sites_; }

  // The site serving a client at `from` (nearest by great-circle distance).
  [[nodiscard]] const AnycastSite& site_for(const geo::GeoPoint& from) const;

 private:
  std::vector<AnycastSite> sites_;
};

// Site lists used by the registry for the big mainstream deployments:
// a representative subset of each provider's published PoP maps.
[[nodiscard]] std::vector<AnycastSite> global_anycast_sites();   // ~Cloudflare/Google scale
[[nodiscard]] std::vector<AnycastSite> regional_anycast_sites(); // ~Quad9/NextDNS scale
[[nodiscard]] std::vector<AnycastSite> isp_backbone_sites();     // ~Hurricane Electric PoPs

}  // namespace ednsm::resolver
