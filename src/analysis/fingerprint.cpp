#include "analysis/fingerprint.hpp"

#include <algorithm>
#include <vector>

#include "common/hash.hpp"

namespace wsx::analysis {
namespace {

/// Renders a QName as "{uri}local" so prefixes never reach the canonical
/// form; an empty QName renders as "-".
std::string canon(const xml::QName& name) {
  if (name.empty()) return "-";
  return "{" + name.namespace_uri() + "}" + name.local_name();
}

void sort_lines(std::vector<std::string>& lines) {
  std::sort(lines.begin(), lines.end());
}

void append_all(std::string& out, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) out += line;
}

std::string canon_complex_type(const xsd::ComplexType& type);

std::string canon_element(const xsd::ElementDecl& element) {
  std::string out = "elem name=" + element.name + " type=" + canon(element.type) +
                    " ref=" + canon(element.ref) + " min=" + std::to_string(element.min_occurs) +
                    " max=" + std::to_string(element.max_occurs) +
                    (element.nillable ? " nillable" : "") + ";";
  if (element.inline_type) {
    out += "[" + canon_complex_type(*element.inline_type) + "]";
  }
  return out;
}

std::string canon_complex_type(const xsd::ComplexType& type) {
  std::string out = "complex name=" + type.name + " base=" + canon(type.base) + ";";
  // Sequence particle order is shape-significant: keep it.
  for (const xsd::Particle& particle : type.particles) {
    if (const auto* element = std::get_if<xsd::ElementDecl>(&particle)) {
      out += canon_element(*element);
    } else {
      const auto& any = std::get<xsd::AnyParticle>(particle);
      out += "any ns=" + any.namespace_constraint + " pc=" + any.process_contents +
             " min=" + std::to_string(any.min_occurs) +
             " max=" + std::to_string(any.max_occurs) + ";";
    }
  }
  // Attribute order is insignificant in XSD: sort.
  std::vector<std::string> attrs;
  for (const xsd::AttributeDecl& attr : type.attributes) {
    attrs.push_back("attr name=" + attr.name + " type=" + canon(attr.type) +
                    " ref=" + canon(attr.ref) + (attr.required ? " required" : "") + ";");
  }
  sort_lines(attrs);
  append_all(out, attrs);
  std::vector<std::string> groups;
  for (const xsd::AttributeGroupRef& group : type.attribute_groups) {
    groups.push_back("attrgroup ref=" + canon(group.ref) + ";");
  }
  sort_lines(groups);
  append_all(out, groups);
  return out;
}

std::string canon_schema(const xsd::Schema& schema) {
  std::string out = "schema tns=" + schema.target_namespace +
                    (schema.element_form_qualified ? " qualified" : " unqualified") + "\n";
  std::vector<std::string> lines;
  for (const xsd::SchemaImport& import : schema.imports) {
    lines.push_back("import ns=" + import.namespace_uri +
                    (import.schema_location.empty() ? " locationless" : " located") + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);
  // Top-level declaration order is insignificant: sort each kind by its
  // full canonical rendering (stable even for duplicate names).
  lines.clear();
  for (const xsd::ComplexType& type : schema.complex_types) {
    lines.push_back(canon_complex_type(type) + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);
  lines.clear();
  for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
    // Enumeration facet order is insignificant.
    std::vector<std::string> values = simple.enumeration;
    std::sort(values.begin(), values.end());
    std::string line = "simple name=" + simple.name + " base=" + canon(simple.base) + " enum=";
    for (const std::string& value : values) line += value + ",";
    lines.push_back(line + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);
  lines.clear();
  for (const xsd::ElementDecl& element : schema.elements) {
    lines.push_back("top " + canon_element(element) + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);
  return out;
}

}  // namespace

std::string Fingerprint::hex() const { return hex16(digest); }

Fingerprint fingerprint(const wsdl::Definitions& defs) {
  std::string out = "wsx-fingerprint v1\n";
  out += "tns=" + defs.target_namespace + "\n";

  std::vector<std::string> lines;
  for (const wsdl::WsdlImport& import : defs.imports) {
    lines.push_back("wsdl-import ns=" + import.namespace_uri +
                    (import.location.empty() ? " locationless" : " located") + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);

  // Extra namespace *URIs* are shape (they change what references resolve
  // against); the prefixes they are declared under are not.
  lines.clear();
  for (const auto& [prefix, uri] : defs.extra_namespaces) {
    lines.push_back("xmlns uri=" + uri + "\n");
  }
  sort_lines(lines);
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  append_all(out, lines);

  // Extension elements matter by element identity, not serialization; the
  // local name strips any (presentation-only) prefix.
  lines.clear();
  for (const xml::Element& extension : defs.extension_elements) {
    lines.push_back("extension name=" + extension.local_name() + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);

  lines.clear();
  for (const xsd::Schema& schema : defs.schemas) lines.push_back(canon_schema(schema));
  sort_lines(lines);
  append_all(out, lines);

  lines.clear();
  for (const wsdl::Message& message : defs.messages) {
    std::string line = "message name=" + message.name + ";";
    // Part order is shape-significant (rpc parameter order): keep it.
    for (const wsdl::Part& part : message.parts) {
      line += "part name=" + part.name + " element=" + canon(part.element) +
              " type=" + canon(part.type) + ";";
    }
    lines.push_back(line + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);

  lines.clear();
  for (const wsdl::PortType& port_type : defs.port_types) {
    std::string line = "porttype name=" + port_type.name + ";";
    std::vector<std::string> ops;
    for (const wsdl::Operation& operation : port_type.operations) {
      std::string op = "op name=" + operation.name + " in=" + operation.input_message +
                       " out=" + operation.output_message + ";";
      std::vector<std::string> faults;
      for (const wsdl::FaultRef& fault : operation.faults) {
        faults.push_back("fault name=" + fault.name + " message=" + fault.message + ";");
      }
      sort_lines(faults);
      for (const std::string& fault : faults) op += fault;
      ops.push_back(op);
    }
    sort_lines(ops);
    for (const std::string& op : ops) line += op;
    lines.push_back(line + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);

  lines.clear();
  for (const wsdl::Binding& binding : defs.bindings) {
    std::string line = "binding name=" + binding.name + " type=" + canon(binding.port_type) +
                       " style=" + wsdl::to_string(binding.style) +
                       " transport=" + binding.transport + ";";
    std::vector<std::string> ops;
    for (const wsdl::BindingOperation& operation : binding.operations) {
      std::string op = "bop name=" + operation.name +
                       (operation.has_soap_action ? " action=" + operation.soap_action : "") +
                       " in=" + wsdl::to_string(operation.input_use) +
                       " out=" + wsdl::to_string(operation.output_use) + ";";
      std::vector<std::string> faults = operation.fault_names;
      std::sort(faults.begin(), faults.end());
      for (const std::string& fault : faults) op += "bfault name=" + fault + ";";
      ops.push_back(op);
    }
    sort_lines(ops);
    for (const std::string& op : ops) line += op;
    lines.push_back(line + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);

  lines.clear();
  for (const wsdl::Service& service : defs.services) {
    std::string line = "service name=" + service.name + ";";
    std::vector<std::string> ports;
    for (const wsdl::Port& port : service.ports) {
      // soap:address location excluded: a redeployed service keeps its shape.
      ports.push_back("port name=" + port.name + " binding=" + canon(port.binding) + ";");
    }
    sort_lines(ports);
    for (const std::string& port : ports) line += port;
    lines.push_back(line + "\n");
  }
  sort_lines(lines);
  append_all(out, lines);

  Fingerprint result;
  result.canonical = std::move(out);
  result.digest = fnv1a(result.canonical, kFnvOffsetBasis);
  return result;
}

}  // namespace wsx::analysis
