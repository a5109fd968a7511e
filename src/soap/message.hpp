// message.hpp — building SOAP request/response payloads from a WSDL
// operation description (document/literal wrapped convention), and the
// per-call shortcuts of the echo exchange: reading a request for the
// server's decision and writing its reply straight to text, and reading
// the reply back, none of them through an envelope tree.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "soap/envelope.hpp"
#include "soap/version.hpp"
#include "wsdl/model.hpp"

namespace wsx::soap {

/// One named argument of an invocation; values travel as text (the study's
/// echo services move opaque serialized payloads).
struct Argument {
  std::string name;
  std::string value;
  friend bool operator==(const Argument&, const Argument&) = default;
};

/// Builds a document/literal request envelope for `operation` of `defs`:
/// the body payload is the operation's wrapper element in the WSDL target
/// namespace with one child element per argument.
Result<Envelope> build_request(const wsdl::Definitions& defs, const std::string& operation,
                               const std::vector<Argument>& arguments);

/// Builds a *structured* request: the wrapper's arg0 element carries one
/// child element per field of the parameter type (how typed proxies
/// marshal bean arguments). The receiving binder validates each field
/// against the schema (see ServerFramework::handle_request).
Result<Envelope> build_structured_request(const wsdl::Definitions& defs,
                                          const std::string& operation,
                                          const std::vector<Argument>& fields);

/// Builds the matching response envelope carrying `return_value` in the
/// conventional "<op>Response/return" shape.
Result<Envelope> build_response(const wsdl::Definitions& defs, const std::string& operation,
                                const std::string& return_value);

/// soap::write of build_response's envelope in `version`, emitted without
/// building it: the same bytes, or the same two errors (unknown operation,
/// one-way operation).
Result<std::string> write_response(const wsdl::Definitions& defs, std::string_view operation,
                                   std::string_view return_value, SoapVersion version);

/// Extracts the operation name implied by a request envelope (the local
/// name of the body payload). Returns an error for fault bodies.
Result<std::string> request_operation(const Envelope& envelope);

/// What the server's decision reads from a request envelope. Strings are
/// owned: decoded text lives in the reading tokenizer.
struct Request {
  SoapVersion version = SoapVersion::k11;
  VersionCoherence coherence;  ///< inspect_coherence's answer
  /// request_operation's answer: the payload's local name, or
  /// soap.fault-body for a Fault payload.
  Result<std::string> operation = std::string();
  std::string value;  ///< the text of the payload's last arg0 child, or ""
  /// The first arg0 child's child elements: each one's local name and text.
  std::vector<Argument> fields;
};

/// The Request of a parsed envelope.
Request request_of(const Envelope& envelope);

/// Reads a request as soap::parse and then request_of do (the same errors,
/// in the same order, and the same Request) in one pass that builds no
/// tree.
Result<Request> read_request(std::string_view text);

/// Extracts the return value from a response envelope; errors on faults.
Result<std::string> response_value(const Envelope& envelope);

/// What a client reads from a reply envelope.
struct Reply {
  std::optional<Fault> fault;  ///< set when the payload is a Fault
  /// response_value's answer: the return element's text, or soap.fault,
  /// soap.not-a-response or soap.missing-return.
  Result<std::string> value = std::string();
};

/// Reads a reply as soap::parse and then response_value do (the same
/// errors, fault and value) in one pass that builds only a Fault payload.
Result<Reply> read_reply(std::string_view text);

}  // namespace wsx::soap
