// Table 1 of the paper: which encrypted-DNS providers each major browser
// offers as built-in choices (as of May 9, 2024). This is the paper's
// operational definition of "mainstream".
#pragma once

#include <string_view>
#include <vector>

namespace ednsm::resolver {

enum class Browser { Chrome, Firefox, Edge, Opera, Brave };

enum class Provider { Cloudflare, Google, Quad9, NextDNS, CleanBrowsing, OpenDNS };

[[nodiscard]] std::string_view to_string(Browser b) noexcept;
[[nodiscard]] std::string_view to_string(Provider p) noexcept;

[[nodiscard]] const std::vector<Browser>& all_browsers();
[[nodiscard]] const std::vector<Provider>& all_providers();

// Does `browser` ship `provider` as a built-in DoH choice? (Table 1.)
[[nodiscard]] bool browser_offers(Browser browser, Provider provider) noexcept;

}  // namespace ednsm::resolver
