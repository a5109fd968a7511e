// http.hpp — a minimal in-process model of the HTTP exchange SOAP rides on.
//
// The communication-step extension moves envelopes between client and
// server models through this wire: requests carry Content-Type and
// SOAPAction headers exactly like SOAP-over-HTTP POST, and servers apply
// the same header checks real stacks do.
//
// Header semantics (pinned — the chaos wire's header-drop/duplicate faults
// depend on them):
//   * lookup is case-insensitive and FIRST-WINS: `header(name)` returns the
//     value of the first matching entry, later duplicates are ignored. The
//     value is a view into the message: valid while the message lives and
//     its headers are unchanged;
//   * `set_header` upserts the first matching entry and leaves any later
//     duplicates in place;
//   * `add_header` always appends, so it can create duplicates;
//   * the `headers` vector preserves insertion order on serialization.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wsx::soap {

struct HttpHeader {
  std::string name;   ///< case-insensitive on lookup
  std::string value;
  friend bool operator==(const HttpHeader&, const HttpHeader&) = default;
};

struct HttpRequest {
  std::string method{"POST"};
  std::string url;
  std::vector<HttpHeader> headers;
  std::string body;

  /// First-wins; a view valid while the message lives and its headers are
  /// unchanged.
  std::optional<std::string_view> header(std::string_view name) const;
  void set_header(std::string name, std::string value);  ///< upserts first match
  void add_header(std::string name, std::string value);  ///< appends (may duplicate)
  std::size_t remove_header(std::string_view name);      ///< removes all matches
};

struct HttpResponse {
  int status = 200;
  std::vector<HttpHeader> headers;
  std::string body;

  /// First-wins; a view valid while the message lives and its headers are
  /// unchanged.
  std::optional<std::string_view> header(std::string_view name) const;
  void set_header(std::string name, std::string value);  ///< upserts first match
  void add_header(std::string name, std::string value);  ///< appends (may duplicate)
  std::size_t remove_header(std::string_view name);      ///< removes all matches

  bool ok() const { return status >= 200 && status < 300; }
  /// Transport-level status classes: a 4xx means the request itself was
  /// refused (retrying is pointless), a 5xx means the server side failed
  /// (the class real stacks consider retryable for idempotent calls).
  bool is_client_error() const { return status >= 400 && status < 500; }
  bool is_server_error() const { return status >= 500 && status < 600; }
};

/// Builds the canonical SOAP 1.1 POST for `envelope_text`.
HttpRequest make_soap_request(std::string url, std::string soap_action,
                              std::string envelope_text);

/// Wraps an envelope into the matching HTTP response (500 for faults, as
/// SOAP 1.1 over HTTP requires).
HttpResponse make_soap_response(std::string envelope_text, bool is_fault);

}  // namespace wsx::soap
