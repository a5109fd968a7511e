// communication.hpp — the Communication (4) and Execution (5) steps the
// paper defers to future work ("we intend to test WS frameworks during the
// communication and execution phase to test the whole inter-operation
// lifecycle"), implemented over the simulated stacks.
//
// For every (service, client) pair that survives description, generation
// and compilation, the client's runtime marshals an echo call, ships it
// through the HTTP wire model, the server executes it, and the response is
// unmarshalled and compared against the sent payload.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "interop/study.hpp"
#include "soap/version.hpp"

namespace wsx::interop {

enum class CommOutcome {
  kBlockedEarlier,   ///< steps 1–3 already failed; the call never happens
  kNoInvocableProxy, ///< client object exists but has no method to call
  kTransportError,   ///< HTTP-level rejection (e.g. missing SOAPAction)
  kServerFault,      ///< server returned a soap:Fault
  kEchoMismatch,     ///< call completed but the echoed payload is wrong
  kOk,
  kVersionMismatch,  ///< the endpoint rejected the call's version shape
                     ///< (VersionMismatch/MustUnderstand fault) — the
                     ///< mixed-version axis's distinct outcome class
                     ///< (appended so journal outcome indices stay stable)
};
inline constexpr std::size_t kCommOutcomeCount = 7;

const char* to_string(CommOutcome outcome);

/// Per client, per server: how the communication step ended, counted over
/// all deployed services.
struct CommCell {
  std::string client;
  std::array<std::size_t, kCommOutcomeCount> outcomes{};
  /// Transport-level detail: kTransportError split by HTTP status class.
  /// 4xx means the request was refused (405/415 — retrying is pointless);
  /// 5xx means the server side rejected or failed at the HTTP layer
  /// (e.g. the .NET SOAPAction refusal). An unparseable body on a 2xx
  /// status falls in neither bucket, so transport_4xx + transport_5xx <=
  /// count(kTransportError); the outcome buckets themselves are unchanged.
  std::size_t transport_4xx = 0;
  std::size_t transport_5xx = 0;

  std::size_t count(CommOutcome outcome) const {
    return outcomes[static_cast<std::size_t>(outcome)];
  }
  std::size_t attempted() const;  ///< everything except kBlockedEarlier
  std::size_t failures() const;   ///< attempted minus kOk
};

struct CommServerResult {
  std::string server;
  std::size_t services_deployed = 0;
  std::vector<CommCell> cells;
};

struct CommunicationResult {
  std::vector<CommServerResult> servers;
  /// Requests the conformance sniffer (soap/validate.hpp) flagged as
  /// contract violations before the server even saw them.
  std::size_t sniffed_violations = 0;

  std::size_t total_attempted() const;
  std::size_t total_failures() const;
  std::size_t total(CommOutcome outcome) const;
};

/// Runs the communication study on top of the usual campaign configuration:
/// run_communication_supervised with no journal. Throws std::runtime_error
/// naming a task that failed on every attempt.
CommunicationResult run_communication_study(const StudyConfig& config = {});

/// Wire-level outcome of one end-to-end echo invocation, the unit the
/// communication engine's tasks run once per client.
struct InvocationOutcome {
  CommOutcome outcome = CommOutcome::kBlockedEarlier;
  int http_status = 0;  ///< only meaningful for wire-level outcomes
};

/// One end-to-end invocation: marshal → HTTP → execute → unmarshal → check.
/// `description` is the service's shared parse; `compiler` is null for
/// dynamic clients.
/// `sniffed_violations`, when non-null, is incremented for requests the
/// conformance sniffer (soap/validate.hpp) flags as contract violations.
/// `profile` dresses the call in 1.2-era headers (the --versions axis;
/// kPure11 = classic behaviour); `policy` overrides the server's documented
/// version-validation policy for this delivery (null = documented policy).
InvocationOutcome invoke_echo_once(const frameworks::ServerFramework& server,
                                   const frameworks::DeployedService& service,
                                   const frameworks::SharedDescription& description,
                                   const frameworks::ClientFramework& client,
                                   const compilers::Compiler* compiler,
                                   std::size_t* sniffed_violations = nullptr,
                                   soap::HybridProfile profile = soap::HybridProfile::kPure11,
                                   const frameworks::VersionPolicy* policy = nullptr);

/// Renders the extension table (no paper reference exists; this is the
/// future-work experiment).
std::string format_communication(const CommunicationResult& result);

/// Machine-readable form: server,client,<one column per outcome>.
std::string communication_csv(const CommunicationResult& result);

}  // namespace wsx::interop
