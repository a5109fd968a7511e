#include "interop/communication.hpp"

#include <iomanip>
#include <sstream>

#include "common/strings.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/shared_description.hpp"
#include "interop/supervised.hpp"
#include "soap/http.hpp"
#include "soap/message.hpp"
#include "soap/validate.hpp"

namespace wsx::interop {

const char* to_string(CommOutcome outcome) {
  switch (outcome) {
    case CommOutcome::kBlockedEarlier:
      return "blocked earlier";
    case CommOutcome::kNoInvocableProxy:
      return "no invocable proxy";
    case CommOutcome::kTransportError:
      return "transport error";
    case CommOutcome::kServerFault:
      return "server fault";
    case CommOutcome::kEchoMismatch:
      return "echo mismatch";
    case CommOutcome::kOk:
      return "ok";
    case CommOutcome::kVersionMismatch:
      return "version mismatch";
  }
  return "unknown";
}

std::size_t CommCell::attempted() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kCommOutcomeCount; ++i) total += outcomes[i];
  return total - count(CommOutcome::kBlockedEarlier);
}

std::size_t CommCell::failures() const { return attempted() - count(CommOutcome::kOk); }

std::size_t CommunicationResult::total_attempted() const {
  std::size_t total = 0;
  for (const CommServerResult& server : servers) {
    for (const CommCell& cell : server.cells) total += cell.attempted();
  }
  return total;
}

std::size_t CommunicationResult::total_failures() const {
  std::size_t total = 0;
  for (const CommServerResult& server : servers) {
    for (const CommCell& cell : server.cells) total += cell.failures();
  }
  return total;
}

std::size_t CommunicationResult::total(CommOutcome outcome) const {
  std::size_t total = 0;
  for (const CommServerResult& server : servers) {
    for (const CommCell& cell : server.cells) total += cell.count(outcome);
  }
  return total;
}

/// The call preparation and response classification live in
/// frameworks/invocation.* and are shared with the chaos campaign.
InvocationOutcome invoke_echo_once(const frameworks::ServerFramework& server,
                                   const frameworks::DeployedService& service,
                                   const frameworks::SharedDescription& description,
                                   const frameworks::ClientFramework& client,
                                   const compilers::Compiler* compiler,
                                   std::size_t* sniffed_violations,
                                   soap::HybridProfile profile,
                                   const frameworks::VersionPolicy* policy) {
  const frameworks::PreparedCall call =
      frameworks::prepare_echo_call(service, description, client, compiler, profile);
  if (call.status == frameworks::PreparedCall::Status::kBlockedEarlier) {
    return {CommOutcome::kBlockedEarlier, 0};
  }
  if (call.status == frameworks::PreparedCall::Status::kNoInvocableProxy) {
    return {CommOutcome::kNoInvocableProxy, 0};
  }

  if (sniffed_violations != nullptr) {
    // Streaming sniffer: no DOM, no Envelope — one pass over the wire bytes.
    Result<std::vector<soap::ValidationIssue>> issues =
        soap::validate_request_text(service.wsdl, call.request.body);
    if (issues.ok() && !issues.value().empty()) {
      ++*sniffed_violations;
    }
  }

  // The wire + Execution step.
  const soap::HttpResponse http_response = server.handle_http(
      service, call.request, policy != nullptr ? *policy : server.version_policy());
  const frameworks::EchoClassification classified =
      frameworks::classify_echo_response(http_response, call.payload);
  switch (classified.outcome) {
    case frameworks::EchoOutcome::kTransportError:
      // A 415 is the HTTP face of a version-policy rejection (the strict
      // media-type gate); keep it in the version-mismatch outcome class.
      if (classified.http_status == 415) {
        return {CommOutcome::kVersionMismatch, classified.http_status};
      }
      return {CommOutcome::kTransportError, classified.http_status};
    case frameworks::EchoOutcome::kVersionMismatch:
      return {CommOutcome::kVersionMismatch, classified.http_status};
    case frameworks::EchoOutcome::kServerFault:
      return {CommOutcome::kServerFault, classified.http_status};
    case frameworks::EchoOutcome::kEchoMismatch:
      return {CommOutcome::kEchoMismatch, classified.http_status};
    case frameworks::EchoOutcome::kOk:
      break;
  }
  return {CommOutcome::kOk, classified.http_status};
}

CommunicationResult run_communication_study(const StudyConfig& config) {
  return resilience::require_complete(run_communication_supervised(config, {})).communication;
}

std::string format_communication(const CommunicationResult& result) {
  std::ostringstream out;
  out << "Communication + Execution study (the paper's future work; no paper "
         "reference values exist)\n";
  for (const CommServerResult& server : result.servers) {
    out << server.server << " — " << server.services_deployed << " services\n";
    const int client_width = name_column_width("client", server.cells, &CommCell::client);
    out << "  " << std::left << std::setw(client_width) << "client" << std::right << std::setw(9)
        << "attempted" << std::setw(8) << "ok" << std::setw(10) << "no-proxy" << std::setw(11)
        << "transport" << std::setw(8) << "fault" << std::setw(10) << "mismatch"
        << std::setw(11) << "vmismatch" << "\n";
    for (const CommCell& cell : server.cells) {
      out << "  " << std::left << std::setw(client_width) << cell.client << std::right
          << std::setw(9) << cell.attempted() << std::setw(8) << cell.count(CommOutcome::kOk)
          << std::setw(10)
          << cell.count(CommOutcome::kNoInvocableProxy) << std::setw(11)
          << cell.count(CommOutcome::kTransportError) << std::setw(8)
          << cell.count(CommOutcome::kServerFault) << std::setw(10)
          << cell.count(CommOutcome::kEchoMismatch) << std::setw(11)
          << cell.count(CommOutcome::kVersionMismatch) << "\n";
    }
  }
  std::size_t transport_4xx = 0;
  std::size_t transport_5xx = 0;
  for (const CommServerResult& server : result.servers) {
    for (const CommCell& cell : server.cells) {
      transport_4xx += cell.transport_4xx;
      transport_5xx += cell.transport_5xx;
    }
  }
  out << "totals: " << result.total_attempted() << " invocations attempted, "
      << result.total_failures() << " communication-step failures, "
      << result.sniffed_violations
      << " requests flagged by the contract-conformance sniffer\n";
  out << "transport detail: " << transport_4xx << " refused at the HTTP layer (4xx), "
      << transport_5xx << " rejected server-side (5xx)\n";
  return out.str();
}

std::string communication_csv(const CommunicationResult& result) {
  std::ostringstream out;
  out << "server,client,blocked,no_proxy,transport,server_fault,mismatch,ok,"
         "version_mismatch,transport_4xx,transport_5xx\n";
  for (const CommServerResult& server : result.servers) {
    for (const CommCell& cell : server.cells) {
      out << server.server << ',' << cell.client << ','
          << cell.count(CommOutcome::kBlockedEarlier) << ','
          << cell.count(CommOutcome::kNoInvocableProxy) << ','
          << cell.count(CommOutcome::kTransportError) << ','
          << cell.count(CommOutcome::kServerFault) << ','
          << cell.count(CommOutcome::kEchoMismatch) << ',' << cell.count(CommOutcome::kOk)
          << ',' << cell.count(CommOutcome::kVersionMismatch)
          << ',' << cell.transport_4xx << ',' << cell.transport_5xx << '\n';
    }
  }
  return out.str();
}

}  // namespace wsx::interop
