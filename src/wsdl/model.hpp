// model.hpp — WSDL 1.1 document model (the subset emitted by SOAP stacks:
// types / message / portType / binding / service with SOAP 1.1 extensions).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "xml/node.hpp"
#include "xml/qname.hpp"
#include "xsd/model.hpp"

namespace wsx::wsdl {

/// wsdl:part — references either a top-level schema element (document
/// style) or a schema type (rpc style). WS-I BP requires exactly one of
/// element=/type= per part depending on binding style.
struct Part {
  std::string name;
  xml::QName element;  ///< for document/literal
  xml::QName type;     ///< for rpc/literal
  friend bool operator==(const Part&, const Part&) = default;
};

struct Message {
  std::string name;
  std::vector<Part> parts;
  friend bool operator==(const Message&, const Message&) = default;
};

/// wsdl:fault of an operation — a named reference to a fault message.
struct FaultRef {
  std::string name;     ///< fault name, unique within the operation
  std::string message;  ///< referenced message's local name
  friend bool operator==(const FaultRef&, const FaultRef&) = default;
};

/// wsdl:operation inside a portType. Messages are referenced by local name
/// within the same target namespace (the only form the studied stacks emit).
struct Operation {
  std::string name;
  std::string input_message;
  std::string output_message;  ///< empty for one-way operations
  std::vector<FaultRef> faults;
  friend bool operator==(const Operation&, const Operation&) = default;
};

struct PortType {
  std::string name;
  std::vector<Operation> operations;
  friend bool operator==(const PortType&, const PortType&) = default;
};

enum class SoapStyle { kDocument, kRpc };
enum class SoapUse { kLiteral, kEncoded };

const char* to_string(SoapStyle style);
const char* to_string(SoapUse use);

struct BindingOperation {
  std::string name;
  std::string soap_action;  ///< value of soapAction= (may be empty string)
  bool has_soap_action = true;
  SoapUse input_use = SoapUse::kLiteral;
  SoapUse output_use = SoapUse::kLiteral;
  /// Fault names bound with soap:fault (use is always literal here).
  std::vector<std::string> fault_names;
  friend bool operator==(const BindingOperation&, const BindingOperation&) = default;
};

struct Binding {
  std::string name;
  xml::QName port_type;
  SoapStyle style = SoapStyle::kDocument;
  std::string transport{"http://schemas.xmlsoap.org/soap/http"};
  std::vector<BindingOperation> operations;
  friend bool operator==(const Binding&, const Binding&) = default;
};

struct Port {
  std::string name;
  xml::QName binding;
  std::string location;  ///< soap:address/@location
  friend bool operator==(const Port&, const Port&) = default;
};

struct Service {
  std::string name;
  std::vector<Port> ports;
  friend bool operator==(const Service&, const Service&) = default;
};

/// wsdl:import — brings another WSDL document's namespace into scope.
/// WS-I requires a resolvable location (R2007); descriptions in the wild
/// carry locationless imports that tools cannot follow.
struct WsdlImport {
  std::string namespace_uri;
  std::string location;  ///< empty = unresolvable
  friend bool operator==(const WsdlImport&, const WsdlImport&) = default;
};

/// wsdl:definitions — the complete service description.
struct Definitions {
  std::string name;
  std::string target_namespace;
  std::string documentation;
  std::vector<WsdlImport> imports;
  std::vector<xsd::Schema> schemas;  ///< contents of wsdl:types
  std::vector<Message> messages;
  std::vector<PortType> port_types;
  std::vector<Binding> bindings;
  std::vector<Service> services;
  /// Vendor extension elements preserved verbatim (e.g. the JAX-WS
  /// customization stanza Java stacks attach; some client tools warn on
  /// extensions they do not recognize).
  std::vector<xml::Element> extension_elements;
  /// Extra namespace declarations to put on wsdl:definitions (prefix → URI).
  /// This is how servers declare namespaces that their schemas reference
  /// without importing — the W3CEndpointReference failure mode.
  std::vector<std::pair<std::string, std::string>> extra_namespaces;

  /// Source positions of named constructs, keyed "kind:name" (e.g.
  /// "portType:EchoPort", "message:echo", "operation:EchoPort/echo",
  /// "definitions:"). Populated by the parser when the model comes from
  /// text; empty for programmatically built models. Lint rules use this to
  /// anchor diagnostics to lines of the published document.
  std::map<std::string, SourceLocation, std::less<>> source_locations;

  const Message* find_message(std::string_view name) const;
  const PortType* find_port_type(std::string_view name) const;
  const Binding* find_binding(std::string_view name) const;
  /// The first operation named `name`, searching the portTypes in order.
  const Operation* find_operation(std::string_view name) const;

  /// Location recorded for `key` ("kind:name"), falling back to the
  /// wsdl:definitions element, else an unknown location.
  SourceLocation locate(std::string_view key) const;

  /// Total operation count across all portTypes.
  std::size_t operation_count() const;

  /// Every field, source_locations included; extension elements compare
  /// as DOM trees do, without their source positions.
  friend bool operator==(const Definitions&, const Definitions&) = default;
};

}  // namespace wsx::wsdl
