#include "frameworks/invocation.hpp"

#include "compilers/compiler.hpp"
#include "frameworks/shared_description.hpp"
#include "soap/message.hpp"
#include "soap/version.hpp"

namespace wsx::frameworks {

PreparedCall prepare_echo_call(const DeployedService& service,
                               const SharedDescription& description,
                               const ClientFramework& client,
                               const compilers::Compiler* compiler,
                               soap::HybridProfile profile) {
  return prepare_call(service, description, client, compiler, /*payload=*/nullptr, profile);
}

PreparedCall prepare_call(const DeployedService& service,
                          const SharedDescription& description,
                          const ClientFramework& client,
                          const compilers::Compiler* compiler,
                          const CallPayload* payload,
                          soap::HybridProfile profile) {
  PreparedCall call;

  // Steps 2–3 gate the call exactly as in the main study.
  GenerationResult generation = client.generate(description);
  if (generation.diagnostics.has_errors() || !generation.produced_artifacts()) {
    return call;
  }
  if (compiler != nullptr && compiler->compile(*generation.artifacts).has_errors()) {
    return call;
  }
  if (generation.artifacts->client_operations.empty()) {
    // The method-less client objects of the zero-operation descriptions.
    call.status = PreparedCall::Status::kNoInvocableProxy;
    return call;
  }

  call.operation = generation.artifacts->client_operations.front();
  if (payload == nullptr) {
    // Typed proxies send values from the parameter type's value space: for
    // enumeration types the stub API only admits the declared constants.
    call.payload = "probe-" + service.spec.service_name();
    for (const xsd::Schema& schema : service.wsdl.schemas) {
      for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
        if (!simple.enumeration.empty()) call.payload = simple.enumeration.front();
      }
    }
  } else {
    call.payload = payload->expected_echo();
  }

  // Marshalling — the client runtime builds the request envelope, under
  // the wrong element when the tool's uncommon-structure rule fires on the
  // description it generated from.
  const ClientFramework::InvocationPolicy policy = client.invocation_policy();
  const bool uncommon = policy.uncommon_structure != nullptr &&
                        policy.uncommon_structure->fires(description.features());
  call.uncommon_marshalling = uncommon;
  const std::string argument_name = uncommon ? "arg0Struct" : "arg0";
  Result<soap::Envelope> request =
      payload != nullptr && !payload->fields.empty()
          ? soap::build_structured_request(service.wsdl, call.operation, payload->fields)
          : soap::build_request(service.wsdl, call.operation,
                                {{argument_name, call.payload}});
  if (!request.ok()) {
    call.status = PreparedCall::Status::kNoInvocableProxy;
    return call;
  }

  // Mixed-version dressing: the hybrid profile's 1.2-era headers go onto
  // the wire form; the pure-1.1 serialization is kept as the downgrade
  // form a version-mismatch recovery retransmits.
  const std::string downgrade_text = soap::write(*request);
  std::string wire_text = downgrade_text;
  if (profile != soap::HybridProfile::kPure11) {
    soap::apply_hybrid_profile(*request, profile, call.operation);
    wire_text = soap::write(*request);
    call.hybrid = wire_text != downgrade_text;
  }

  // SOAPAction header policy.
  bool binding_declares_action = false;
  for (const wsdl::Binding& binding : service.wsdl.bindings) {
    for (const wsdl::BindingOperation& bound : binding.operations) {
      if (bound.name == call.operation && bound.has_soap_action) {
        binding_declares_action = true;
      }
    }
  }
  const std::string url = service.wsdl.services.empty()
                              ? "http://localhost/"
                              : service.wsdl.services.front().ports.front().location;
  call.request = soap::make_soap_request(url, "", std::move(wire_text));
  call.downgrade_request = soap::make_soap_request(url, "", downgrade_text);
  if (!binding_declares_action && policy.omit_soap_action_when_unspecified) {
    // gSOAP stubs send no SOAPAction header when the binding declares none.
    call.request.remove_header("SOAPAction");
    call.downgrade_request.remove_header("SOAPAction");
  }
  call.status = PreparedCall::Status::kReady;
  return call;
}

EchoClassification classify_echo_response(const soap::HttpResponse& response,
                                          const std::string& payload) {
  EchoClassification result;
  result.http_status = response.status;
  if (response.status == 405 || response.status == 415) {
    result.outcome = EchoOutcome::kTransportError;
    return result;
  }
  const Result<soap::Reply> reply = soap::read_reply(response.body);
  if (!reply.ok()) {
    result.outcome = EchoOutcome::kTransportError;
    return result;
  }
  if (reply->fault.has_value()) {
    // Distinguish header-level rejections from execution faults, and the
    // version-policy rejections of the mixed-version axis from both: a
    // VersionMismatch or MustUnderstand code (either version's spelling)
    // marks the call recoverable by downgrading to the 1.1-coherent form.
    const std::string& code = reply->fault->fault_code;
    const std::size_t colon = code.find(':');
    const std::string_view local = colon == std::string::npos
                                       ? std::string_view(code)
                                       : std::string_view(code).substr(colon + 1);
    if (local == "VersionMismatch" || local == "MustUnderstand") {
      result.outcome = EchoOutcome::kVersionMismatch;
      return result;
    }
    result.outcome =
        reply->fault->fault_string.find("SOAPAction") != std::string::npos
            ? EchoOutcome::kTransportError
            : EchoOutcome::kServerFault;
    return result;
  }
  if (!reply->value.ok()) {
    result.outcome = EchoOutcome::kServerFault;
    return result;
  }
  result.outcome = *reply->value == payload ? EchoOutcome::kOk : EchoOutcome::kEchoMismatch;
  return result;
}

}  // namespace wsx::frameworks
