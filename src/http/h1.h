// HTTP/1.1 request/response codec — the simpler of the two DoH transports
// (RFC 8484 allows both; we implement both and the client picks).
//
// Supports exactly what DoH needs: GET/POST requests with arbitrary headers
// and an optional body, responses with status line + headers + body,
// Content-Length framing (no chunked encoding — DoH messages are small and
// the sizes are known up front).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace ednsm::http {

using HeaderList = std::vector<std::pair<std::string, std::string>>;

// Case-insensitive header lookup; returns nullptr if absent.
[[nodiscard]] const std::string* find_header(const HeaderList& headers, std::string_view name);

struct Request {
  std::string method = "GET";
  std::string path = "/";
  std::string authority;  // Host
  HeaderList headers;
  util::Bytes body;

  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static Result<Request> decode(std::span<const std::uint8_t> wire);
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  HeaderList headers;
  util::Bytes body;

  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static Result<Response> decode(std::span<const std::uint8_t> wire);
};

[[nodiscard]] std::string_view default_reason(int status) noexcept;

}  // namespace ednsm::http
