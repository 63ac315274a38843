#include "netsim/path.h"

#include <algorithm>

namespace ednsm::netsim {

PathModel PathModel::between(const geo::GeoPoint& src, const geo::GeoPoint& dst,
                             const AccessLinkModel& src_access,
                             const AccessLinkModel& dst_access) {
  PathModel p;
  p.propagation_ms = geo::propagation_delay_ms(src, dst);
  p.src_access = src_access;
  p.dst_access = dst_access;
  return p;
}

double PathModel::sample_one_way_ms(Rng& rng) const {
  double delay = propagation_ms + quirk.extra_base_ms;
  delay += rng.lognormal(transit_jitter_mu, transit_jitter_sigma);
  delay += src_access.sample_delay_ms(rng);
  delay += dst_access.sample_delay_ms(rng);
  if (quirk.extra_jitter_probability > 0.0 && rng.bernoulli(quirk.extra_jitter_probability)) {
    delay += rng.pareto(quirk.extra_jitter_scale, quirk.extra_jitter_alpha);
  }
  // Quirks may encode a peering *advantage* (negative base); physics still
  // applies, so never go below a 50 µs floor.
  return std::max(delay, 0.05);
}

double PathModel::loss_probability() const noexcept {
  // Union of independent loss events.
  const double keep = (1.0 - transit_loss) * (1.0 - src_access.loss_probability) *
                      (1.0 - dst_access.loss_probability) * (1.0 - quirk.extra_loss);
  return std::clamp(1.0 - keep, 0.0, 1.0);
}

}  // namespace ednsm::netsim
