// validate.hpp — runtime message-conformance checking.
//
// The paper's related work (§II) discusses sniffer-based conformance
// checking of messages against the service contract [Ramsokul & Sowmya];
// this module implements that idea for our stacks: given a description and
// an envelope, verify that the payload is one the contract allows. The
// communication study uses it to attribute wire-level failures ("the
// client sent something the WSDL never described") independently of the
// server's behaviour.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "soap/envelope.hpp"
#include "wsdl/model.hpp"

namespace wsx::soap {

struct ValidationIssue {
  std::string code;     ///< e.g. "msg.unknown-operation", "msg.unexpected-argument"
  std::string message;
  friend bool operator==(const ValidationIssue&, const ValidationIssue&) = default;
};

/// Checks a request envelope against `defs`: the body payload must be the
/// wrapper element of a described operation, and its children must match
/// the wrapper's declared particles (no unexpected elements, no missing
/// required ones).
std::vector<ValidationIssue> validate_request(const wsdl::Definitions& defs,
                                              const Envelope& envelope);

/// Zero-DOM sniffer: equivalent to soap::parse(text) followed by
/// validate_request(defs, envelope) — a parse failure (xml.* / soap.*)
/// returns that error, success returns the validation issues — but runs as
/// one streaming pass that records only local names, materialising no tree
/// at all.
Result<std::vector<ValidationIssue>> validate_request_text(const wsdl::Definitions& defs,
                                                           std::string_view text);

/// Checks a response envelope for `operation`: the payload must be the
/// "<operation>Response" wrapper with the declared return element (faults
/// validate trivially — they are always permitted).
std::vector<ValidationIssue> validate_response(const wsdl::Definitions& defs,
                                               const std::string& operation,
                                               const Envelope& envelope);

}  // namespace wsx::soap
