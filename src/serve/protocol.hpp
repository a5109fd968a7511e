// protocol.hpp — the framed request/response protocol `wsinterop serve`
// speaks.
//
// The protocol is transport-agnostic by construction: a *frame* is
// "#<decimal payload length>\n<payload>\n" and a payload is one compact
// JSON object, so the same codec drives the deterministic in-process
// transport the tests and the load generator use, a request script file
// read frame-by-frame, and the optional localhost TCP listener. Framing
// (not line-splitting) is what lets a lint request carry a whole multi-line
// WSDL document as its body without any transport-level escaping beyond
// JSON's own.
//
// Requests name one of five query kinds; responses carry an explicit
// status. Overload is a first-class answer: a shed or deadline-rejected
// query gets a `shedded` / `deadline-exceeded` response on the wire, never
// a silent queueing collapse or a dropped connection.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace wsx::serve {

/// What a request asks for. kStats is control-plane: it bypasses admission
/// so the daemon stays observable while it is shedding.
enum class QueryKind {
  kVerdict,     ///< "will client X consume service Y?" — O(1) cache lookup
  kExplain,     ///< the responsible footnote mechanisms for the pair
  kSubstitute,  ///< ranked replacement services for a failing pair
  kLint,        ///< full rule pack over an uploaded (untrusted) WSDL body
  kStats,       ///< metrics snapshot (control plane, never shed)
};

const char* to_string(QueryKind kind);
bool query_kind_from_string(std::string_view text, QueryKind& out);

/// Wire status of one response.
enum class StatusCode {
  kOk,                ///< answered; `body` holds the answer object
  kShedded,           ///< bounded queue full — explicit load shedding
  kDeadlineExceeded,  ///< could not meet the query class deadline; not run
  kCircuitOpen,       ///< lint breaker open — untrusted-parse path cooling off
  kQuarantined,       ///< poison upload parked after repeated failures
  kNotFound,          ///< unknown client or service
  kBadRequest,        ///< malformed frame or payload
};

const char* to_string(StatusCode status);
bool status_code_from_string(std::string_view text, StatusCode& out);

struct Request {
  QueryKind kind = QueryKind::kVerdict;
  std::string client;   ///< verdict/explain/substitute: client tool name
  std::string service;  ///< "Server/Service" or bare service name
  std::size_t top = 5;  ///< substitute: candidate count
  std::string body;     ///< lint: the uploaded WSDL text
};

struct Response {
  StatusCode status = StatusCode::kOk;
  std::string body;             ///< answer object as JSON text; "" unless kOk
  std::string reason;           ///< diagnostic for non-kOk statuses
  std::uint64_t latency_ms = 0; ///< virtual queue wait + service time
};

/// Payload codecs. encode_* emit compact JSON objects; decode_* accept what
/// encode_* produced (errors use the "serve." prefix).
std::string encode_request(const Request& request);
Result<Request> decode_request(std::string_view payload);
std::string encode_response(const Response& response);
Result<Response> decode_response(std::string_view payload);

/// Wraps a payload into one frame: "#<len>\n<payload>\n".
std::string frame(std::string_view payload);

/// Largest payload a frame header may announce (64 MiB). A larger length is
/// a bad frame, rejected before any of its payload is buffered.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Incremental frame extractor over any byte stream. feed() appends bytes;
/// next() yields complete payloads in arrival order.
class FrameReader {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Extracts the next complete payload into `payload`. Returns false when
  /// the buffer holds no complete frame yet. A malformed header (missing
  /// '#', a non-numeric length) is a hard error — resynchronising a framed
  /// stream silently would hide exactly the corruption it should surface.
  Result<bool> next(std::string& payload);

  /// Bytes buffered but not yet consumed (a truncated trailing frame).
  std::size_t pending() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace wsx::serve
