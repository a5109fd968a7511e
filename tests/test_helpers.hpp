// test_helpers.hpp — shared fixtures for the wsinterop test suite.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "gen/request_gen.hpp"
#include "soap/envelope.hpp"
#include "soap/stream_frame.hpp"
#include "wsdl/model.hpp"
#include "xml/parser.hpp"
#include "xml/query.hpp"
#include "xml/writer.hpp"

namespace wsx::testing {

/// Small catalog population shared by the chaos, fuzz-bridge and propcheck
/// suites: enough services for differentiated counts, fast enough for a
/// unit test.
inline catalog::JavaCatalogSpec small_java_spec() {
  catalog::JavaCatalogSpec spec;
  spec.plain_beans = 20;
  spec.throwable_clean = 2;
  spec.throwable_raw = 1;
  spec.raw_generic_beans = 1;
  spec.anytype_array_beans = 1;
  spec.no_default_ctor = 2;
  spec.abstract_classes = 1;
  spec.interfaces = 1;
  spec.generic_types = 1;
  return spec;
}

inline catalog::DotNetCatalogSpec small_dotnet_spec() {
  catalog::DotNetCatalogSpec spec;
  spec.plain_types = 20;
  spec.dataset_plain = 2;
  spec.deep_nesting_clean = 1;
  spec.non_serializable = 2;
  spec.no_default_ctor = 2;
  spec.generic_types = 1;
  spec.abstract_classes = 1;
  spec.interfaces = 1;
  return spec;
}

/// Deploys the service a server publishes for one named catalog type —
/// the single-pair unit the bridge tests start from.
inline frameworks::DeployedService deploy_one(std::string_view server_name,
                                              std::string_view type_name) {
  // Static: ServiceSpec points into the catalog, so it must outlive the
  // returned service.
  static const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = frameworks::make_server(server_name);
  const catalog::TypeInfo* type = catalog.find(std::string(type_name));
  return std::move(server->deploy(frameworks::ServiceSpec{type}).value());
}

/// The client tools the paper gives a remedy for, with the remedy applied,
/// in Table II order: Metro with a manual bindings customization, Axis1 with
/// the wrapper-naming fix (§IV.B.3), CXF and JBossWS with a bindings
/// customization (§IV.B.2).
inline std::vector<std::unique_ptr<frameworks::ClientFramework>> remedied_clients() {
  std::vector<std::unique_ptr<frameworks::ClientFramework>> clients;
  for (const char* name : {"Oracle Metro 2.3", "Apache Axis1 1.4", "Apache CXF 2.7.6",
                           "JBossWS CXF 4.2.3"}) {
    clients.push_back(frameworks::make_client(name, /*remedied=*/true));
  }
  return clients;
}

/// JBossWS refusing operation-less descriptions as Metro does: the strict
/// server of ablation A2.
inline std::unique_ptr<frameworks::ServerFramework> strict_jbossws() {
  return frameworks::make_server("JBossWS CXF 4.2.3", /*remedied=*/true);
}

/// Every description the three servers publish for the paper's
/// populations scaled to `percent` (as `--scale` scales them), in corpus
/// order: servers in registry order, types in catalog order.
inline std::vector<std::string> served_corpus(
    std::size_t percent, frameworks::ServiceShape shape = frameworks::ServiceShape::kSimpleEcho) {
  const catalog::TypeCatalog java =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, percent));
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(catalog::scaled(catalog::DotNetCatalogSpec{}, percent));
  std::vector<std::string> texts;
  for (const auto& server : frameworks::make_servers()) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    for (const frameworks::ServiceSpec& spec : frameworks::make_services(types, shape)) {
      Result<frameworks::DeployedService> service = server->deploy(spec);
      if (service.ok()) texts.push_back(std::move(service->wsdl_text));
    }
  }
  return texts;
}

/// One deployed service with its parse-once description and its seeded
/// generated corpus — the unit every corpus-replay test starts from.
struct SeededService {
  frameworks::DeployedService service;
  frameworks::SharedDescription description;
  std::vector<gen::GeneratedCase> corpus;
};

/// Deploys every service `server` publishes for `catalog` and compiles the
/// per-service corpus at `options`. Deterministic: same (catalog, options)
/// always yields byte-identical corpora.
inline std::vector<SeededService> seeded_corpus(const frameworks::ServerFramework& server,
                                                const catalog::TypeCatalog& catalog,
                                                const gen::CorpusOptions& options) {
  std::vector<SeededService> seeded;
  for (const catalog::TypeInfo& type : catalog.types()) {
    Result<frameworks::DeployedService> service =
        server.deploy(frameworks::ServiceSpec{&type});
    if (!service.ok()) continue;
    frameworks::DeployedService deployed = std::move(service.value());
    frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(deployed, /*with_wsi=*/false);
    std::vector<gen::GeneratedCase> corpus = gen::generate_corpus(deployed, options);
    seeded.push_back(
        SeededService{std::move(deployed), std::move(description), std::move(corpus)});
  }
  return seeded;
}

/// The DOM envelope reader that soap::parse replaced, kept as the oracle the
/// stream packs hold the streaming reader to: materialise the whole
/// document, then inspect it. It resolves the root's name with
/// xml::NamespaceScope, whose rule the streaming reader applies to the
/// start tag alone (xml::resolve_start_tag), and shares the frame checks and the model build
/// (soap/stream_frame.hpp) with the streaming reader.
inline Result<soap::Envelope> parse_envelope_dom(std::string_view text) {
  Result<xml::Element> root = xml::parse_element(text);
  if (!root.ok()) return root.error();

  soap::detail::EnvelopeFrame frame;
  xml::NamespaceScope scope;
  scope.push(root.value());
  const std::optional<xml::QName> root_name = scope.resolve(root.value().name());
  frame.root_resolved = root_name.has_value();
  if (root_name) {
    frame.root_local = root_name->local_name();
    frame.root_namespace = root_name->namespace_id();
    frame.root_uri = root_name->namespace_uri();
  }

  std::vector<xml::Element> headers;
  if (const xml::Element* header = root.value().child("Header")) {
    for (const xml::Element* entry : header->child_elements()) headers.push_back(*entry);
  }
  std::optional<xml::Element> payload;
  if (const xml::Element* body = root.value().child("Body")) {
    frame.have_body = true;
    std::vector<const xml::Element*> payloads = body->child_elements();
    if (!payloads.empty()) {
      frame.have_payload = true;
      frame.payload_local = payloads.front()->local_name();
      payload = *payloads.front();
    }
  }
  Result<soap::SoapVersion> version = soap::detail::check_envelope_frame(frame);
  if (!version.ok()) return version.error();
  return soap::detail::assemble_envelope(version.value(), std::move(headers),
                                         std::move(*payload));
}

/// The tree-building envelope writer that soap::write replaced, kept as the
/// oracle its bytes are held to: assemble the whole envelope as one DOM
/// (deep copies of every header entry and the payload), then serialise it.
inline std::string write_envelope_dom(const soap::Envelope& envelope) {
  xml::Element root{"soapenv:Envelope"};
  root.declare_namespace("soapenv", soap::envelope_namespace(envelope.version()));
  if (!envelope.header_entries().empty()) {
    xml::Element& header = root.add_element("soapenv:Header");
    for (const xml::Element& entry : envelope.header_entries()) header.add_child(entry);
  }
  xml::Element& body = root.add_element("soapenv:Body");
  body.add_child(envelope.body());
  return xml::write(root);
}

/// A minimal, fully WS-I-compliant echo description (document/literal
/// wrapped, one operation), used as the baseline that individual tests
/// then break in targeted ways.
inline wsdl::Definitions compliant_echo_definitions() {
  wsdl::Definitions defs;
  defs.name = "Echo";
  defs.target_namespace = "urn:echo";

  xsd::Schema schema;
  schema.target_namespace = "urn:echo";
  xsd::ComplexType payload;
  payload.name = "Payload";
  xsd::ElementDecl field;
  field.name = "value";
  field.type = xsd::qname(xsd::Builtin::kString);
  payload.particles.emplace_back(std::move(field));
  schema.complex_types.push_back(std::move(payload));

  const auto wrapper = [](const std::string& name, const std::string& child) {
    xsd::ElementDecl element;
    element.name = name;
    xsd::ComplexType type;
    xsd::ElementDecl arg;
    arg.name = child;
    arg.type = xml::QName{"urn:echo", "Payload"};
    type.particles.emplace_back(std::move(arg));
    element.inline_type = Box<xsd::ComplexType>{std::move(type)};
    return element;
  };
  schema.elements.push_back(wrapper("echo", "arg0"));
  schema.elements.push_back(wrapper("echoResponse", "return"));
  defs.schemas.push_back(std::move(schema));

  wsdl::Message input;
  input.name = "echo";
  input.parts.push_back({"parameters", xml::QName{"urn:echo", "echo"}, {}});
  defs.messages.push_back(std::move(input));
  wsdl::Message output;
  output.name = "echoResponse";
  output.parts.push_back({"parameters", xml::QName{"urn:echo", "echoResponse"}, {}});
  defs.messages.push_back(std::move(output));

  wsdl::PortType port_type;
  port_type.name = "EchoPort";
  port_type.operations.push_back({"echo", "echo", "echoResponse", {}});
  defs.port_types.push_back(std::move(port_type));

  wsdl::Binding binding;
  binding.name = "EchoBinding";
  binding.port_type = xml::QName{"urn:echo", "EchoPort"};
  wsdl::BindingOperation operation;
  operation.name = "echo";
  operation.soap_action = "";
  binding.operations.push_back(std::move(operation));
  defs.bindings.push_back(std::move(binding));

  wsdl::Service service;
  service.name = "EchoService";
  service.ports.push_back(
      {"EchoPort", xml::QName{"urn:echo", "EchoBinding"}, "http://localhost/echo"});
  defs.services.push_back(std::move(service));
  return defs;
}

}  // namespace wsx::testing
