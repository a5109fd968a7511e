// rules_wsi.cpp — the WS-I Basic Profile 1.1 assertions, re-homed from
// src/wsi/assertions.cpp as registry rules. Ids follow the BP numbering for
// the checks it defines; the R28xx block covers schema validity, which BP
// incorporates by reference to XML Schema. The wsi::check adapter maps
// these findings back onto the legacy AssertionResult API.
#include <algorithm>
#include <string>

#include "analysis/registry.hpp"
#include "xsd/resolver.hpp"

namespace wsx::analysis {
namespace {

/// R2001-flavoured structural soundness: a definitions element must carry a
/// target namespace for its names to be referenceable.
void check_target_namespace(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  if (!defs.target_namespace.empty()) return;
  out.report("wsdl:definitions has no targetNamespace", "wsdl:definitions",
             defs.locate("definitions:"),
             "declare targetNamespace= on wsdl:definitions");
}

/// R2007: a wsdl:import must state a location the consumer can retrieve.
void check_import_locations(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::WsdlImport& import : defs.imports) {
    if (!import.location.empty()) continue;
    out.report("import of namespace '" + import.namespace_uri + "' has no location",
               import.namespace_uri, defs.locate("import:" + import.namespace_uri),
               "add location= to the wsdl:import");
  }
}

/// R2102: QName references in the description must resolve. This is the
/// assertion the DataSet-style (s:schema / s:lang) and the
/// W3CEndpointReference WSDLs fail.
void check_qname_resolution(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  const xsd::ResolutionReport report = xsd::resolve(defs.schemas);
  for (const xsd::UnresolvedRef& ref : report.unresolved) {
    out.report(std::string(to_string(ref.kind)) + " '" + ref.target.lexical() + "' in " +
                   ref.context,
               ref.context, defs.locate("definitions:"),
               "declare or import the referenced component");
  }
}

/// R2800-flavoured: embedded schemas must be valid XML Schema. Catches the
/// dual type declaration (type= plus inline anonymous type) and unnamed
/// top-level elements.
void check_schema_validity(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  const xsd::ResolutionReport report = xsd::resolve(defs.schemas);
  for (const xsd::ValidityIssue& issue : report.issues) {
    out.report(issue.code + " in " + issue.context, issue.context,
               defs.locate("definitions:"));
  }
}

/// R2304: operations within a portType must have unique signatures.
void check_operation_uniqueness(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::PortType& port_type : defs.port_types) {
    for (std::size_t i = 0; i < port_type.operations.size(); ++i) {
      const std::string& name = port_type.operations[i].name;
      bool duplicate = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (port_type.operations[j].name == name) duplicate = true;
      }
      if (!duplicate) continue;
      out.report("duplicate operation '" + name + "' in portType '" + port_type.name + "'",
                 port_type.name + "/" + name,
                 defs.locate("operation:" + port_type.name + "/" + name),
                 "rename one of the operations (BP prohibits overloading)");
    }
  }
}

/// R2201/R2204: a document-literal binding must reference messages whose
/// parts use element= (and at most one body part).
void check_document_parts(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    if (binding.style != wsdl::SoapStyle::kDocument) continue;
    const wsdl::PortType* port_type = defs.find_port_type(binding.port_type.local_name());
    if (port_type == nullptr) continue;
    for (const wsdl::Operation& operation : port_type->operations) {
      for (const std::string* message_name :
           {&operation.input_message, &operation.output_message}) {
        if (message_name->empty()) continue;
        const wsdl::Message* message = defs.find_message(*message_name);
        if (message == nullptr) continue;
        for (const wsdl::Part& part : message->parts) {
          if (part.element.empty()) {
            out.report("document-style part '" + part.name + "' lacks element=",
                       message->name + "/" + part.name,
                       defs.locate("message:" + message->name),
                       "reference a top-level schema element via element=");
          }
        }
        if (message->parts.size() > 1) {
          out.report("document-style message '" + message->name + "' has multiple parts",
                     message->name, defs.locate("message:" + message->name),
                     "wrap the parameters in a single wrapper element");
        }
      }
    }
  }
}

/// R2203: rpc-literal parts must use type=.
void check_rpc_parts(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    if (binding.style != wsdl::SoapStyle::kRpc) continue;
    const wsdl::PortType* port_type = defs.find_port_type(binding.port_type.local_name());
    if (port_type == nullptr) continue;
    for (const wsdl::Operation& operation : port_type->operations) {
      for (const std::string* message_name :
           {&operation.input_message, &operation.output_message}) {
        if (message_name->empty()) continue;
        const wsdl::Message* message = defs.find_message(*message_name);
        if (message == nullptr) continue;
        for (const wsdl::Part& part : message->parts) {
          if (part.type.empty()) {
            out.report("rpc-style part '" + part.name + "' lacks type=",
                       message->name + "/" + part.name,
                       defs.locate("message:" + message->name),
                       "reference a schema type via type=");
          }
        }
      }
    }
  }
}

/// R2706: a binding must use use="literal"; SOAP encoding is prohibited.
void check_literal_use(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    for (const wsdl::BindingOperation& operation : binding.operations) {
      if (operation.input_use != wsdl::SoapUse::kEncoded &&
          operation.output_use != wsdl::SoapUse::kEncoded) {
        continue;
      }
      out.report("operation '" + operation.name + "' in binding '" + binding.name +
                     "' uses SOAP encoding",
                 binding.name + "/" + operation.name, defs.locate("binding:" + binding.name),
                 "use use=\"literal\" on soap:body");
    }
  }
}

/// R2744/R2745: soap:operation must carry a soapAction attribute (its value
/// may be an empty string, but the attribute itself must be present so that
/// receivers can match the HTTP header).
void check_soap_action(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    for (const wsdl::BindingOperation& operation : binding.operations) {
      if (operation.has_soap_action) continue;
      out.report("operation '" + operation.name + "' in binding '" + binding.name +
                     "' has no soapAction attribute",
                 binding.name + "/" + operation.name, defs.locate("binding:" + binding.name),
                 "add soapAction=\"\" to soap:operation");
    }
  }
}

/// R2701: bindings must reference an existing portType.
void check_binding_port_type(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    if (defs.find_port_type(binding.port_type.local_name()) != nullptr) continue;
    out.report("binding '" + binding.name + "' references unknown portType '" +
                   binding.port_type.local_name() + "'",
               binding.name, defs.locate("binding:" + binding.name));
  }
}

/// R2718/R2720: binding operations must exist in the portType, and every
/// portType operation must be bound.
void check_binding_coverage(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    const wsdl::PortType* port_type = defs.find_port_type(binding.port_type.local_name());
    if (port_type == nullptr) continue;  // reported by R2701
    for (const wsdl::BindingOperation& bound : binding.operations) {
      const bool exists =
          std::any_of(port_type->operations.begin(), port_type->operations.end(),
                      [&bound](const wsdl::Operation& op) { return op.name == bound.name; });
      if (exists) continue;
      out.report("binding '" + binding.name + "' binds unknown operation '" + bound.name + "'",
                 binding.name + "/" + bound.name, defs.locate("binding:" + binding.name));
    }
    for (const wsdl::Operation& declared : port_type->operations) {
      const bool bound = std::any_of(
          binding.operations.begin(), binding.operations.end(),
          [&declared](const wsdl::BindingOperation& op) { return op.name == declared.name; });
      if (bound) continue;
      out.report("portType operation '" + declared.name + "' is not bound by '" +
                     binding.name + "'",
                 port_type->name + "/" + declared.name,
                 defs.locate("operation:" + port_type->name + "/" + declared.name));
    }
  }
}

/// R2097-flavoured: operations must reference messages that exist.
void check_message_references(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::PortType& port_type : defs.port_types) {
    for (const wsdl::Operation& operation : port_type.operations) {
      const auto check_reference = [&](const std::string& message_name) {
        if (message_name.empty()) return;
        if (defs.find_message(message_name) != nullptr) return;
        out.report("operation '" + operation.name + "' references unknown message '" +
                       message_name + "'",
                   port_type.name + "/" + operation.name,
                   defs.locate("operation:" + port_type.name + "/" + operation.name));
      };
      check_reference(operation.input_message);
      check_reference(operation.output_message);
      for (const wsdl::FaultRef& fault : operation.faults) check_reference(fault.message);
    }
  }
}

/// R2723-flavoured: every fault declared by a portType operation must be
/// bound by the binding under the same name.
void check_fault_coverage(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Binding& binding : defs.bindings) {
    const wsdl::PortType* port_type = defs.find_port_type(binding.port_type.local_name());
    if (port_type == nullptr) continue;
    for (const wsdl::Operation& operation : port_type->operations) {
      const wsdl::BindingOperation* bound = nullptr;
      for (const wsdl::BindingOperation& candidate : binding.operations) {
        if (candidate.name == operation.name) bound = &candidate;
      }
      if (bound == nullptr) continue;  // reported by R2718
      for (const wsdl::FaultRef& fault : operation.faults) {
        const bool covered = std::any_of(
            bound->fault_names.begin(), bound->fault_names.end(),
            [&fault](const std::string& name) { return name == fault.name; });
        if (covered) continue;
        out.report("fault '" + fault.name + "' of operation '" + operation.name +
                       "' is not bound by '" + binding.name + "'",
                   binding.name + "/" + operation.name,
                   defs.locate("binding:" + binding.name),
                   "add a soap:fault entry for the declared fault");
      }
    }
  }
}

/// R2105-flavoured: message parts using element= must reference an element
/// declared by the embedded schemas. Catches dangling wrapper references
/// (renamed wrapper elements, undeclared prefixes).
void check_part_element_resolution(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Message& message : defs.messages) {
    for (const wsdl::Part& part : message.parts) {
      if (part.element.empty()) continue;
      bool declared = false;
      for (const xsd::Schema& schema : defs.schemas) {
        if (schema.target_namespace == part.element.namespace_uri() &&
            schema.find_element(part.element.local_name()) != nullptr) {
          declared = true;
        }
      }
      if (declared) continue;
      out.report("part '" + part.name + "' of message '" + message.name +
                     "' references undeclared element '" + part.element.lexical() + "'",
                 message.name + "/" + part.name, defs.locate("message:" + message.name),
                 "declare the wrapper element in wsdl:types");
    }
  }
}

/// R2401-flavoured: a wsdl:service must expose SOAP/HTTP ports with an
/// absolute location and a resolvable binding.
void check_service_ports(const AnalysisInput& input, Reporter& out) {
  const wsdl::Definitions& defs = *input.definitions;
  for (const wsdl::Service& service : defs.services) {
    for (const wsdl::Port& port : service.ports) {
      if (port.location.rfind("http://", 0) != 0 && port.location.rfind("https://", 0) != 0) {
        out.report("port '" + port.name + "' has location '" + port.location + "'",
                   service.name + "/" + port.name, defs.locate("service:" + service.name),
                   "use an absolute http(s) URI in soap:address");
      }
      if (defs.find_binding(port.binding.local_name()) == nullptr) {
        out.report("port '" + port.name + "' references unknown binding '" +
                       port.binding.local_name() + "'",
                   service.name + "/" + port.name, defs.locate("service:" + service.name));
      }
    }
  }
}

void add_rule(RuleRegistry& registry, const char* id, const char* title,
              LambdaRule::CheckFn fn) {
  RuleInfo info;
  info.id = id;
  info.title = title;
  info.category = Category::kConformance;
  info.default_severity = Severity::kError;
  info.paper_ref = "§III.B.d";
  registry.add(std::make_unique<LambdaRule>(std::move(info), fn));
}

}  // namespace

void register_wsi_rules(RuleRegistry& registry) {
  // Registration order is the canonical reporting order of the original
  // checker (wsi::check relies on it).
  add_rule(registry, "R2001", "DESCRIPTION must declare a targetNamespace",
           check_target_namespace);
  add_rule(registry, "R2007", "wsdl:import must declare a location", check_import_locations);
  add_rule(registry, "R2102", "QName references must resolve", check_qname_resolution);
  add_rule(registry, "R2800", "Embedded schemas must be valid XML Schema",
           check_schema_validity);
  add_rule(registry, "R2304", "Operations within a portType must be uniquely named",
           check_operation_uniqueness);
  add_rule(registry, "R2204", "Document-literal bindings must use element= parts (one body part)",
           check_document_parts);
  add_rule(registry, "R2203", "Rpc-literal bindings must use type= parts", check_rpc_parts);
  add_rule(registry, "R2706", "Bindings must use literal encoding", check_literal_use);
  add_rule(registry, "R2744", "soap:operation must declare soapAction", check_soap_action);
  add_rule(registry, "R2701", "Bindings must reference an existing portType",
           check_binding_port_type);
  add_rule(registry, "R2718", "Binding operations must exist in the portType",
           check_binding_coverage);
  add_rule(registry, "R2097", "Operations must reference existing messages",
           check_message_references);
  add_rule(registry, "R2723", "Bindings must bind every declared fault", check_fault_coverage);
  add_rule(registry, "R2105", "Message parts must reference declared elements",
           check_part_element_resolution);
  add_rule(registry, "R2401", "soap:address must use an absolute http(s) URI",
           check_service_ports);
}

}  // namespace wsx::analysis
