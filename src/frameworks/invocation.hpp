// invocation.hpp — the shared front and back half of one end-to-end echo
// call, factored out of the communication study so the chaos campaign
// drives the exact same call pipeline: steps 2–3 gate the call, the client
// runtime marshals the request (including each stack's SOAPAction policy),
// and a delivered HTTP response is classified the same way everywhere.
// With a fault-free wire the chaos study therefore reproduces the
// communication study's outcomes call for call.
#pragma once

#include <string>
#include <vector>

#include "frameworks/client.hpp"
#include "frameworks/server.hpp"
#include "soap/http.hpp"
#include "soap/message.hpp"

namespace wsx::compilers {
class Compiler;
}

namespace wsx::frameworks {

/// A caller-chosen call payload: either a scalar arg0 value, or — when
/// `fields` is non-empty — a structured request whose arg0 carries one
/// child element per field. `expected_echo()` is what a conforming echo
/// service sends back for it (the first field's text on the structured
/// path, mirroring the server model).
struct CallPayload {
  std::string value;
  std::vector<soap::Argument> fields;

  std::string expected_echo() const {
    return fields.empty() ? value : fields.front().value;
  }
};

/// Everything needed to put one echo call on the wire, or the reason it
/// never gets there.
struct PreparedCall {
  enum class Status {
    kBlockedEarlier,    ///< steps 2–3 failed; the call never happens
    kNoInvocableProxy,  ///< client object exists but has no method to call
    kReady,
  };
  Status status = Status::kBlockedEarlier;
  std::string operation;
  std::string payload;         ///< the value the service must echo back
  soap::HttpRequest request;   ///< fully built, SOAPAction policy applied
  /// The proxy marshalled into the "uncommon data structure" element
  /// (arg0Struct): the server model drops the argument and echoes "".
  bool uncommon_marshalling = false;
  /// The 1.1-coherent form of `request` (hybrid extension headers
  /// stripped): what a downgrade-capable stack retransmits after a
  /// version-mismatch fault. Identical to `request` for pure-1.1 calls.
  soap::HttpRequest downgrade_request;
  /// True when `request` carries a hybrid profile, i.e. differs from
  /// `downgrade_request` — the precondition for a meaningful downgrade.
  bool hybrid = false;
};

/// Runs generation + compilation gates and marshals the request envelope
/// exactly as the communication study does. `compiler` may be null for
/// tools checked by instantiation. `description` must have been built from
/// `service` (SharedDescription::from_deployed): generation and marshalling
/// both read its one parse of the served text.
/// A hybrid `profile` dresses the request envelope in its 1.2-era extension
/// headers (soap/version.hpp) before serialization, and `downgrade_request`
/// keeps the pure-1.1 form for downgrade retries.
PreparedCall prepare_echo_call(const DeployedService& service,
                               const SharedDescription& description,
                               const ClientFramework& client,
                               const compilers::Compiler* compiler,
                               soap::HybridProfile profile = soap::HybridProfile::kPure11);

/// General form behind prepare_echo_call: with `payload == nullptr` the
/// probe/enumeration default payload is used (byte-identical to
/// prepare_echo_call); otherwise the caller's payload is marshalled —
/// scalar through the arg0 path (arg0Struct for uncommon-marshalling
/// pairs), structured through soap::build_structured_request. The
/// generative tester (wsx::gen) feeds its corpora through here so every
/// generated case runs the exact communication-study pipeline.
PreparedCall prepare_call(const DeployedService& service,
                          const SharedDescription& description,
                          const ClientFramework& client,
                          const compilers::Compiler* compiler,
                          const CallPayload* payload,
                          soap::HybridProfile profile = soap::HybridProfile::kPure11);

/// How one *delivered* HTTP response relates to the call contract.
enum class EchoOutcome {
  kTransportError,   ///< HTTP-level rejection or unparseable response body
  kVersionMismatch,  ///< version-policy rejection: a VersionMismatch or
                     ///< MustUnderstand fault — the distinct outcome class
                     ///< of the mixed-version axis, and the trigger of the
                     ///< downgrade-retry recovery path
  kServerFault,      ///< server returned any other soap:Fault
  kEchoMismatch,     ///< call completed but the echoed payload is wrong
  kOk,
};

struct EchoClassification {
  EchoOutcome outcome = EchoOutcome::kTransportError;
  int http_status = 0;  ///< the response's status code, for 4xx/5xx detail
};

/// Classifies a delivered response against the payload the call sent.
EchoClassification classify_echo_response(const soap::HttpResponse& response,
                                          const std::string& payload);

}  // namespace wsx::frameworks
