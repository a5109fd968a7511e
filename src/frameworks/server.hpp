// server.hpp — server-side framework subsystems (Table I).
//
// A server framework model does what the real stack does at deployment:
// decide whether the native type is bindable (the paper's 22024 → 7239
// filter), generate the service's WSDL (with each stack's documented
// quirks), and — for the communication/execution extension — answer SOAP
// requests against a deployed service. The three studied stacks are rows
// of one policy table (roster.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.hpp"
#include "frameworks/service.hpp"
#include "frameworks/version_policy.hpp"
#include "frameworks/wsdl_builder.hpp"
#include "soap/envelope.hpp"
#include "soap/http.hpp"
#include "wsdl/model.hpp"
#include "wsdl/writer.hpp"

namespace wsx::frameworks {

/// A successfully deployed service: its model plus the exact WSDL text the
/// application server publishes (clients consume the text, not the model —
/// everything crosses a real serialize/parse boundary).
struct DeployedService {
  ServiceSpec spec;
  wsdl::Definitions wsdl;
  std::string wsdl_text;
};

/// Everything that sets one server stack apart: one row of Table I. Its
/// views must outlive every framework built from it; the table's
/// (roster.cpp) view literals.
struct ServerPolicy {
  std::string_view name = {};                ///< "Metro 2.3"
  std::string_view application_server = {};  ///< "GlassFish 4.0"
  std::string_view language = {};            ///< "Java" / "C#"

  /// The binder's trait rule (catalog::Trait bits): a type with any
  /// `admitted` trait binds; any other needs every `required` trait and no
  /// `refused` one.
  std::uint64_t admitted = 0;
  std::uint64_t required = 0;
  std::uint64_t refused = 0;
  /// The "deploy.unbindable" refusal reads lead + "'<type>'" + tail.
  std::string_view unbindable_lead = {};
  std::string_view unbindable_tail = {};

  WsdlBuilderOptions builder = {};   ///< the stack's description quirks
  wsdl::WsdlWriteOptions writer = {};  ///< its prefixes ("s" for WCF's schema)

  /// How a refusal to publish an operation-less description names the
  /// stack ("deploy.no-operations"); empty when the stack publishes one,
  /// as JBossWS does (§IV.B.1). `remedied_refuser` is the same under the
  /// paper's remedy: refusing such descriptions, as Metro does.
  std::string_view zero_operation_refuser = {};
  std::string_view remedied_refuser = {};

  /// The HTTP listener refuses requests without a SOAPAction header (.NET
  /// does; the Java stacks dispatch on the body).
  bool requires_soap_action = false;
  VersionPolicy version_policy = VersionPolicy::kStrict;
};

class ServerFramework {
 public:
  explicit ServerFramework(ServerPolicy policy) : policy_(std::move(policy)) {}

  std::string name() const { return std::string(policy_.name); }
  std::string application_server() const { return std::string(policy_.application_server); }
  std::string language() const { return std::string(policy_.language); }

  /// True when the framework's binder can map `type` to a schema type. A
  /// false return models the deployment refusals that filtered the paper's
  /// corpus from 22024 candidates to 7239 deployable services.
  bool can_deploy(const catalog::TypeInfo& type) const {
    return (type.traits & policy_.admitted) != 0 ||
           ((type.traits & policy_.required) == policy_.required &&
            (type.traits & policy_.refused) == 0);
  }

  /// Deploys the service and publishes its description (testing-phase step
  /// (a), Service Description Generation). Errors use the "deploy." prefix.
  Result<DeployedService> deploy(const ServiceSpec& spec) const;

  /// The stack's documented version-validation policy (see
  /// version_policy.hpp for the taxonomy and per-stack rationale).
  /// Campaigns may override it per round via the explicit-policy overloads
  /// below — that sweep is the `--versions` robustness axis.
  VersionPolicy version_policy() const { return policy_.version_policy; }

  /// Execution step (paper's future work): handles one request envelope
  /// against a deployed service, echoing the argument back. The two-arg
  /// form validates under the stack's documented version_policy().
  soap::Envelope handle_request(const DeployedService& service,
                                const soap::Envelope& request) const;
  soap::Envelope handle_request(const DeployedService& service,
                                const soap::Envelope& request,
                                VersionPolicy policy) const;

  /// True when the stack's HTTP listener refuses requests without a
  /// SOAPAction header.
  bool requires_soap_action_header() const { return policy_.requires_soap_action; }

  /// Full Communication + Execution steps over the HTTP wire model:
  /// header checks (Content-Type per the version policy), envelope
  /// parsing, dispatch, response serialization. The two-arg form uses the
  /// stack's documented version_policy().
  soap::HttpResponse handle_http(const DeployedService& service,
                                 const soap::HttpRequest& request) const;
  soap::HttpResponse handle_http(const DeployedService& service,
                                 const soap::HttpRequest& request,
                                 VersionPolicy policy) const;

 private:
  ServerPolicy policy_;
};

}  // namespace wsx::frameworks
