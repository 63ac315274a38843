// Byte-sequence helpers used by the wire codecs and test assertions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace ednsm::util {

using Bytes = std::vector<std::uint8_t>;

// Interpret a byte span as text (for HTTP bodies and test assertions).
[[nodiscard]] std::string as_string(std::span<const std::uint8_t> data);

// Copy text into a byte vector.
[[nodiscard]] Bytes to_bytes(std::string_view s);

// FNV-1a 64-bit hash; used for deterministic per-key jitter seeds, spec
// fingerprints and output digests.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

// 64-bit value <-> fixed-width lowercase hex (16 digits), for seeds, spec
// fingerprints and digests in persisted JSON, whose numbers are doubles and
// cannot hold all 64 bits.
[[nodiscard]] std::string u64_to_hex(std::uint64_t v);
[[nodiscard]] Result<std::uint64_t> u64_from_hex(std::string_view s);

}  // namespace ednsm::util
