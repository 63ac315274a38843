// Wide-area path model between two attached hosts.
//
// One-way delay = propagation (great-circle distance at fiber speed with a
// path-stretch factor) + transit queueing jitter (lognormal) + both access
// links + any per-path quirk. Loss combines transit and access loss.
//
// The quirk hook exists because the paper observes idiosyncratic per-(vantage,
// resolver) behaviour — e.g. doh.la.ahadns.net is highly variable from home
// devices but stable from EC2 — that no distance-based model produces. The
// resolver registry installs quirks; the path model just applies them.
#pragma once

#include "geo/coords.h"
#include "netsim/access_link.h"
#include "netsim/rng.h"

namespace ednsm::netsim {

// Extra variability applied to one direction of one (src, dst) path.
struct PathQuirk {
  double extra_base_ms = 0.0;        // constant detour (e.g. ODoH relay hop)
  double extra_jitter_scale = 0.0;   // Pareto scale of added jitter; 0 = none
  double extra_jitter_alpha = 1.8;
  double extra_jitter_probability = 0.0;
  double extra_loss = 0.0;
};

struct PathModel {
  double propagation_ms = 0.0;   // one-way, already stretched
  double transit_jitter_mu = -1.2;
  double transit_jitter_sigma = 0.45;
  double transit_loss = 0.0005;
  AccessLinkModel src_access;
  AccessLinkModel dst_access;
  PathQuirk quirk;

  // Build from endpoint locations + access links (quirk defaults to none).
  [[nodiscard]] static PathModel between(const geo::GeoPoint& src, const geo::GeoPoint& dst,
                                         const AccessLinkModel& src_access,
                                         const AccessLinkModel& dst_access);

  // Sample one packet's one-way delay in milliseconds.
  [[nodiscard]] double sample_one_way_ms(Rng& rng) const;

  // Probability this packet is lost anywhere on the path.
  [[nodiscard]] double loss_probability() const noexcept;
};

}  // namespace ednsm::netsim
