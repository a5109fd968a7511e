#include "frameworks/server.hpp"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/strings.hpp"
#include "soap/message.hpp"
#include "soap/version.hpp"
#include "xsd/values.hpp"

namespace wsx::frameworks {
namespace {

/// What a service answers one request with: a fault, or an echo of `value`
/// from `operation`. Either way it travels in `version`.
struct Answer {
  std::optional<soap::Fault> fault;
  std::string operation;
  std::string value;
  soap::SoapVersion version = soap::SoapVersion::k11;
};

/// The fault a service answers with when its echo reply cannot be built.
soap::Fault unbuildable_reply(const Error& error) {
  return {"soap:Server", "failed to build response", error.message};
}

/// The complexType of the first arg0 declaration of `operation`'s wrapper
/// that resolves to one, across the description's schemas: the rule
/// gen::resolve_parameter builds structured requests by.
const xsd::ComplexType* parameter_type(const wsdl::Definitions& wsdl,
                                       std::string_view operation) {
  for (const xsd::Schema& schema : wsdl.schemas) {
    const xsd::ElementDecl* wrapper = schema.find_element(operation);
    if (wrapper == nullptr || !wrapper->inline_type.has_value()) continue;
    for (const xsd::Particle& particle : wrapper->inline_type->particles) {
      const xsd::ElementDecl* arg_decl = std::get_if<xsd::ElementDecl>(&particle);
      if (arg_decl == nullptr || arg_decl->name != "arg0" || arg_decl->type.empty()) continue;
      if (const xsd::ComplexType* type = schema.find_complex_type(arg_decl->type.local_name())) {
        return type;
      }
    }
  }
  return nullptr;
}

/// The last declared element of `type` named `local`, or nullptr.
const xsd::ElementDecl* declared_field(const xsd::ComplexType& type, std::string_view local) {
  const xsd::ElementDecl* declared = nullptr;
  for (const xsd::Particle& particle : type.particles) {
    const xsd::ElementDecl* candidate = std::get_if<xsd::ElementDecl>(&particle);
    if (candidate != nullptr && candidate->name == local) declared = candidate;
  }
  return declared;
}

/// The execution step's decision for one request, shared by handle_request
/// (which reads `request` off its envelope tree and builds the reply) and
/// handle_http (which reads it off the text and writes the reply).
Answer answer(const DeployedService& service, soap::Request request, VersionPolicy policy) {
  Answer result;
  // A shaded-CXF deployment answers a genuine SOAP 1.2 envelope in kind;
  // everything else on this endpoint speaks 1.1 — faults included.
  result.version =
      policy == VersionPolicy::kShadedCxf && request.version == soap::SoapVersion::k12
          ? soap::SoapVersion::k12
          : soap::SoapVersion::k11;
  const auto fault = [&result](std::string code, std::string reason, std::string detail) {
    result.fault = soap::Fault{std::move(code), std::move(reason), std::move(detail)};
    return std::move(result);
  };

  // The studied stacks bind services to SOAP 1.1 endpoints; a 1.2 envelope
  // gets the standard VersionMismatch fault — unless the shaded runtime's
  // bundled 1.2 support engages.
  if (request.version != soap::SoapVersion::k11 && policy != VersionPolicy::kShadedCxf) {
    return fault("soap:VersionMismatch", "endpoint only accepts SOAP 1.1 envelopes", "");
  }
  const soap::VersionCoherence& coherence = request.coherence;
  if (policy == VersionPolicy::kStrict && coherence.has_12_era_headers) {
    // Strict version coherence: a 1.1 envelope must not carry the 1.2-era
    // extension stack at all, mustUnderstand or not.
    return fault("soap:VersionMismatch",
                 "SOAP 1.2-era extension header on a SOAP 1.1 endpoint", "");
  }
  // Header entries demanding mustUnderstand processing: the echo services
  // understand no extension headers, so SOAP requires a fault — except the
  // shaded runtime, whose bundled WS-A/WS-Security modules process the
  // known 1.2-era headers. Unknown mustUnderstand headers fault everywhere.
  if (coherence.has_unknown_mu_headers ||
      (coherence.has_12_era_mu_headers && policy != VersionPolicy::kShadedCxf)) {
    return fault("soap:MustUnderstand", "header not understood by this endpoint", "");
  }
  if (!request.operation.ok()) {
    return fault("soap:Client", "malformed request", request.operation.error().message);
  }
  result.operation = std::move(request.operation.value());
  if (service.wsdl.find_operation(result.operation) == nullptr) {
    return fault("soap:Client", "unknown operation '" + result.operation + "'", "");
  }
  // Unmarshal by element name, as a real binder does: arguments under an
  // unexpected element are silently dropped (they are "lax" content), so a
  // client that marshals into the wrong element gets an empty echo back.
  // The echo is the last arg0's text; the field check below reads the first.
  std::string& value = result.value;
  value = std::move(request.value);

  // Structured payloads (typed proxies marshal bean fields as child
  // elements of arg0): validate every field against the parameter type's
  // schema before echoing — the typed-unmarshalling path of real binders.
  if (!request.fields.empty()) {
    if (const xsd::ComplexType* type = parameter_type(service.wsdl, result.operation)) {
      for (const soap::Argument& field : request.fields) {
        const xsd::ElementDecl* declared = declared_field(*type, field.name);
        if (declared == nullptr) {
          return fault("soap:Client",
                       "unmarshalling error: unexpected element '" + field.name + "'", "");
        }
        const std::optional<xsd::Builtin> builtin =
            declared->type.namespace_uri() == xml::ns::kXsd
                ? xsd::builtin_from_local_name(declared->type.local_name())
                : std::nullopt;
        if (builtin && !xsd::is_valid_value(*builtin, field.value)) {
          return fault("soap:Client",
                       "unmarshalling error: '" + field.value + "' is not a valid xsd:" +
                           declared->type.local_name() + " for element '" + field.name + "'",
                       "");
        }
      }
      // Echo the first field's value (the bean round-trips).
      value = std::move(request.fields.front().value);
    }
  }
  // Typed unmarshalling: when the parameter type is an enumeration, the
  // binder rejects values outside the value space (a real execution-step
  // failure mode the echo services can exhibit).
  for (const xsd::Schema& schema : service.wsdl.schemas) {
    for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
      if (!simple.enumeration.empty() && !value.empty() &&
          !xsd::is_valid_value(simple, value)) {
        return fault(
            "soap:Client",
            "unmarshalling error: '" + value + "' is not a valid " + simple.name + " value",
            "");
      }
    }
  }
  if (value == "!throw") {
    // Drive the declared-fault path: echo services for Exception/Error
    // types raise their checked exception on demand.
    std::string detail;
    for (const wsdl::PortType& port_type : service.wsdl.port_types) {
      for (const wsdl::Operation& op : port_type.operations) {
        if (!op.faults.empty()) detail = op.faults.front().name;
      }
    }
    return fault("soap:Server", "simulated service exception", detail);
  }
  return result;
}

}  // namespace

Result<DeployedService> ServerFramework::deploy(const ServiceSpec& spec) const {
  if (spec.type == nullptr) return Error{"deploy.no-type", "service has no parameter type"};
  if (!can_deploy(*spec.type)) {
    return Error{"deploy.unbindable", std::string(policy_.unbindable_lead) + "'" +
                                          spec.type->qualified_name() + "'" +
                                          std::string(policy_.unbindable_tail)};
  }

  DeployedService service;
  service.spec = spec;
  service.wsdl = build_echo_wsdl(spec, policy_.builder);
  if (!policy_.zero_operation_refuser.empty() && service.wsdl.operation_count() == 0) {
    return Error{"deploy.no-operations",
                 std::string(policy_.zero_operation_refuser) + " refused to deploy '" +
                     spec.service_name() + "': the description would expose no operations"};
  }
  service.wsdl_text = wsdl::to_string(service.wsdl, policy_.writer);
  return service;
}

soap::Envelope ServerFramework::handle_request(const DeployedService& service,
                                               const soap::Envelope& request) const {
  return handle_request(service, request, version_policy());
}

soap::Envelope ServerFramework::handle_request(const DeployedService& service,
                                               const soap::Envelope& request,
                                               VersionPolicy policy) const {
  Answer reply = answer(service, soap::request_of(request), policy);
  if (!reply.fault.has_value()) {
    Result<soap::Envelope> response =
        soap::build_response(service.wsdl, reply.operation, reply.value);
    if (response.ok()) {
      // A 1.2 conversation gets its echo back in 1.2 as well.
      response.value().set_version(reply.version);
      return std::move(response.value());
    }
    reply.fault = unbuildable_reply(response.error());
  }
  return soap::Envelope::make_fault(*std::move(reply.fault), reply.version);
}

soap::HttpResponse ServerFramework::handle_http(const DeployedService& service,
                                                const soap::HttpRequest& request) const {
  return handle_http(service, request, version_policy());
}

soap::HttpResponse ServerFramework::handle_http(const DeployedService& service,
                                                const soap::HttpRequest& request,
                                                VersionPolicy policy) const {
  const auto fault = [](std::string code, std::string reason) {
    const soap::Envelope envelope =
        soap::Envelope::make_fault({std::move(code), std::move(reason), ""});
    return soap::make_soap_response(soap::write(envelope), /*is_fault=*/true);
  };

  if (request.method != "POST") {
    soap::HttpResponse response;
    response.status = 405;
    response.body = "method not allowed";
    return response;
  }
  // Media-type gate. Every endpoint accepts the SOAP 1.1 "text/xml"; only
  // the shaded runtime also accepts the SOAP 1.2 "application/soap+xml".
  // A skewed Content-Type on a strict/relaxed stack dies here with a 415,
  // before any envelope is ever parsed.
  const std::optional<std::string_view> content_type = request.header("Content-Type");
  const bool media_type_ok =
      content_type.has_value() &&
      (soap::content_type_matches(*content_type, soap::SoapVersion::k11) ||
       (policy == VersionPolicy::kShadedCxf &&
        soap::content_type_matches(*content_type, soap::SoapVersion::k12)));
  if (!media_type_ok) {
    soap::HttpResponse response;
    response.status = 415;
    response.body = "unsupported media type";
    return response;
  }
  if (requires_soap_action_header() && !request.header("SOAPAction")) {
    // The behaviour of the .NET HTTP stack: dispatch is keyed on the
    // SOAPAction header, so its absence is a client error.
    return fault("soap:Client", "missing SOAPAction header");
  }

  Result<soap::Request> parsed = soap::read_request(request.body);
  if (!parsed.ok()) {
    return fault("soap:Client", "malformed envelope: " + parsed.error().message);
  }
  // An echo is written straight to text; a fault is built and written as
  // handle_request would return it.
  Answer reply = answer(service, std::move(parsed.value()), policy);
  soap::HttpResponse response;
  if (!reply.fault.has_value()) {
    Result<std::string> text =
        soap::write_response(service.wsdl, reply.operation, reply.value, reply.version);
    if (text.ok()) {
      response = soap::make_soap_response(std::move(text.value()), /*is_fault=*/false);
    } else {
      reply.fault = unbuildable_reply(text.error());
    }
  }
  if (reply.fault.has_value()) {
    response = soap::make_soap_response(
        soap::write(soap::Envelope::make_fault(*std::move(reply.fault), reply.version)),
        /*is_fault=*/true);
  }
  if (reply.version == soap::SoapVersion::k12) {
    // A 1.2 reply travels under its own media type.
    response.set_header("Content-Type", "application/soap+xml; charset=utf-8");
  }
  return response;
}

}  // namespace wsx::frameworks
