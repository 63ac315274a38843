#include "resolver/browsers.h"

namespace ednsm::resolver {

std::string_view to_string(Browser b) noexcept {
  switch (b) {
    case Browser::Chrome: return "Chrome";
    case Browser::Firefox: return "Firefox";
    case Browser::Edge: return "Edge";
    case Browser::Opera: return "Opera";
    case Browser::Brave: return "Brave";
  }
  return "?";
}

std::string_view to_string(Provider p) noexcept {
  switch (p) {
    case Provider::Cloudflare: return "Cloudflare";
    case Provider::Google: return "Google";
    case Provider::Quad9: return "Quad9";
    case Provider::NextDNS: return "NextDNS";
    case Provider::CleanBrowsing: return "CleanBrowsing";
    case Provider::OpenDNS: return "OpenDNS";
  }
  return "?";
}

const std::vector<Browser>& all_browsers() {
  static const std::vector<Browser> kAll = {Browser::Chrome, Browser::Firefox, Browser::Edge,
                                            Browser::Opera, Browser::Brave};
  return kAll;
}

const std::vector<Provider>& all_providers() {
  static const std::vector<Provider> kAll = {Provider::Cloudflare,    Provider::Google,
                                             Provider::Quad9,         Provider::NextDNS,
                                             Provider::CleanBrowsing, Provider::OpenDNS};
  return kAll;
}

bool browser_offers(Browser browser, Provider provider) noexcept {
  // Table 1, row by row.
  switch (browser) {
    case Browser::Chrome:
      return provider == Provider::Cloudflare || provider == Provider::Google ||
             provider == Provider::Quad9 || provider == Provider::NextDNS ||
             provider == Provider::CleanBrowsing;
    case Browser::Firefox:
      return provider == Provider::Cloudflare || provider == Provider::NextDNS;
    case Browser::Edge:
      return true;  // all six
    case Browser::Opera:
      return provider == Provider::Cloudflare || provider == Provider::Google;
    case Browser::Brave:
      return true;  // all six
  }
  return false;
}

}  // namespace ednsm::resolver
