// Differential tests: wsdl::parse, which reads the model straight off the
// pull token stream, against the DOM readers it replaced (kept below as the
// oracle: parse the text into a tree, then walk the tree). The two must
// agree on the model (==, QName prefixes included), its source locations,
// the extension-element subtrees and their positions, and on the error code
// and message, for every served description, for fuzz mutants of them, and
// for hand-written cases covering each rule the tree walk applies.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "frameworks/service.hpp"
#include "fuzz/mutation.hpp"
#include "test_helpers.hpp"
#include "wsdl/parser.hpp"
#include "xml/parser.hpp"
#include "xml/query.hpp"

namespace wsx {
namespace {

// --- The oracle: the DOM readers -------------------------------------------

namespace dom {

class SchemaReader {
 public:
  explicit SchemaReader(xml::NamespaceScope scope) : scope_(std::move(scope)) {}

  Result<xsd::Schema> read(const xml::Element& root) {
    scope_.push(root);
    xsd::Schema schema;
    if (std::optional<std::string> tns = root.attribute("targetNamespace")) {
      schema.target_namespace = *tns;
    }
    if (std::optional<std::string> form = root.attribute("elementFormDefault")) {
      schema.element_form_qualified = (*form == "qualified");
    }
    for (const xml::Element* child : root.child_elements()) {
      const std::string local = child->local_name();
      if (local == "import") {
        xsd::SchemaImport import;
        import.namespace_uri = child->attribute("namespace").value_or("");
        import.schema_location = child->attribute("schemaLocation").value_or("");
        schema.imports.push_back(std::move(import));
      } else if (local == "element") {
        Result<xsd::ElementDecl> element = read_element(*child);
        if (!element.ok()) return element.error();
        schema.elements.push_back(std::move(element.value()));
      } else if (local == "complexType") {
        Result<xsd::ComplexType> type = read_complex_type(*child);
        if (!type.ok()) return type.error();
        schema.complex_types.push_back(std::move(type.value()));
      } else if (local == "simpleType") {
        schema.simple_types.push_back(read_simple_type(*child));
      }
    }
    scope_.pop();
    return schema;
  }

 private:
  xml::QName resolve_qname(const std::string& lexical) const {
    if (std::optional<xml::QName> resolved = scope_.resolve(lexical, true)) return *resolved;
    const std::size_t colon = lexical.find(':');
    if (colon == std::string::npos) return xml::QName{"", lexical};
    return xml::QName{"", lexical.substr(colon + 1), lexical.substr(0, colon)};
  }

  static Result<int> read_occurs(const xml::Element& node, std::string_view attr, int fallback) {
    std::optional<std::string> raw = node.attribute(attr);
    if (!raw) return fallback;
    if (*raw == "unbounded") return xsd::kUnbounded;
    try {
      return std::stoi(*raw);
    } catch (...) {
      return Error{"xsd.bad-occurs", "invalid " + std::string(attr) + " value '" + *raw + "'"};
    }
  }

  Result<xsd::ElementDecl> read_element(const xml::Element& node) {
    scope_.push(node);
    xsd::ElementDecl element;
    element.name = node.attribute("name").value_or("");
    if (std::optional<std::string> type = node.attribute("type")) {
      element.type = resolve_qname(*type);
    }
    if (std::optional<std::string> ref = node.attribute("ref")) element.ref = resolve_qname(*ref);
    Result<int> min_occurs = read_occurs(node, "minOccurs", 1);
    if (!min_occurs.ok()) return min_occurs.error();
    element.min_occurs = min_occurs.value();
    Result<int> max_occurs = read_occurs(node, "maxOccurs", 1);
    if (!max_occurs.ok()) return max_occurs.error();
    element.max_occurs = max_occurs.value();
    element.nillable = node.attribute("nillable").value_or("false") == "true";
    if (const xml::Element* inline_type = node.child("complexType")) {
      Result<xsd::ComplexType> type = read_complex_type(*inline_type);
      if (!type.ok()) return type.error();
      element.inline_type = Box<xsd::ComplexType>{std::move(type.value())};
    }
    scope_.pop();
    return element;
  }

  Result<xsd::ComplexType> read_complex_type(const xml::Element& node) {
    scope_.push(node);
    xsd::ComplexType type;
    type.name = node.attribute("name").value_or("");
    if (const xml::Element* complex_content = node.child("complexContent")) {
      scope_.push(*complex_content);
      if (const xml::Element* extension = complex_content->child("extension")) {
        scope_.push(*extension);
        if (std::optional<std::string> base = extension->attribute("base")) {
          type.base = resolve_qname(*base);
        }
        Status status = read_content(*extension, type);
        scope_.pop();
        scope_.pop();
        scope_.pop();
        if (!status.ok()) return status.error();
        return type;
      }
      scope_.pop();
    }
    Status status = read_content(node, type);
    scope_.pop();
    if (!status.ok()) return status.error();
    return type;
  }

  Status read_content(const xml::Element& node, xsd::ComplexType& type) {
    if (const xml::Element* sequence = node.child("sequence")) {
      scope_.push(*sequence);
      for (const xml::Element* particle : sequence->child_elements()) {
        const std::string local = particle->local_name();
        if (local == "element") {
          Result<xsd::ElementDecl> element = read_element(*particle);
          if (!element.ok()) return element.error();
          type.particles.emplace_back(std::move(element.value()));
        } else if (local == "any") {
          xsd::AnyParticle any;
          any.namespace_constraint = particle->attribute("namespace").value_or("##any");
          any.process_contents = particle->attribute("processContents").value_or("lax");
          Result<int> min_occurs = read_occurs(*particle, "minOccurs", 1);
          Result<int> max_occurs = read_occurs(*particle, "maxOccurs", 1);
          if (!min_occurs.ok() || !max_occurs.ok()) {
            return Error{"xsd.bad-occurs", "invalid occurrence bound on xs:any"};
          }
          any.min_occurs = min_occurs.value();
          any.max_occurs = max_occurs.value();
          type.particles.emplace_back(std::move(any));
        }
      }
      scope_.pop();
    }
    for (const xml::Element* child : node.child_elements()) {
      const std::string local = child->local_name();
      if (local == "attribute") {
        xsd::AttributeDecl attribute;
        attribute.name = child->attribute("name").value_or("");
        if (std::optional<std::string> attr_type = child->attribute("type")) {
          attribute.type = resolve_qname(*attr_type);
        }
        if (std::optional<std::string> ref = child->attribute("ref")) {
          attribute.ref = resolve_qname(*ref);
        }
        attribute.required = child->attribute("use").value_or("") == "required";
        type.attributes.push_back(std::move(attribute));
      } else if (local == "attributeGroup") {
        if (std::optional<std::string> ref = child->attribute("ref")) {
          type.attribute_groups.push_back(xsd::AttributeGroupRef{resolve_qname(*ref)});
        }
      }
    }
    return Status::success();
  }

  xsd::SimpleTypeDecl read_simple_type(const xml::Element& node) {
    scope_.push(node);
    xsd::SimpleTypeDecl type;
    type.name = node.attribute("name").value_or("");
    if (const xml::Element* restriction = node.child("restriction")) {
      scope_.push(*restriction);
      if (std::optional<std::string> base = restriction->attribute("base")) {
        type.base = resolve_qname(*base);
      }
      for (const xml::Element* facet : restriction->children_named("enumeration")) {
        type.enumeration.push_back(facet->attribute("value").value_or(""));
      }
      const auto int_facet = [&](const char* facet_name, int& out) {
        if (const xml::Element* facet = restriction->child(facet_name)) {
          if (std::optional<std::string> value = facet->attribute("value")) {
            out = std::atoi(value->c_str());
          }
        }
      };
      int_facet("minLength", type.min_length);
      int_facet("maxLength", type.max_length);
      int_facet("totalDigits", type.total_digits);
      if (const xml::Element* facet = restriction->child("pattern")) {
        type.pattern = facet->attribute("value").value_or("");
      }
      scope_.pop();
    }
    scope_.pop();
    return type;
  }

  xml::NamespaceScope scope_;
};

Result<xsd::Schema> schema_from_xml(const xml::Element& element, xml::NamespaceScope scope = {}) {
  if (element.local_name() != "schema") {
    return Error{"xsd.not-a-schema", "expected an xs:schema element, got '" + element.name() + "'"};
  }
  return SchemaReader{std::move(scope)}.read(element);
}

std::string local_part(std::string_view lexical) {
  const std::size_t colon = lexical.find(':');
  return std::string(colon == std::string_view::npos ? lexical : lexical.substr(colon + 1));
}

void record_location(wsdl::Definitions& defs, std::string_view kind, std::string_view name,
                     const xml::Element& node) {
  defs.source_locations[std::string(kind) + ":" + std::string(name)] =
      SourceLocation{"", node.source_line(), node.source_column()};
}

class WsdlReader {
 public:
  Result<wsdl::Definitions> read(const xml::Element& root) {
    if (root.local_name() != "definitions") {
      return Error{"wsdl.not-a-wsdl", "expected wsdl:definitions, got '" + root.name() + "'"};
    }
    scope_.push(root);
    wsdl::Definitions defs;
    defs.name = root.attribute("name").value_or("");
    defs.target_namespace = root.attribute("targetNamespace").value_or("");
    record_location(defs, "definitions", "", root);
    for (const xml::Attribute& attr : root.attributes()) {
      if (attr.name.rfind("xmlns:", 0) == 0) {
        defs.extra_namespaces.emplace_back(attr.name.substr(6), attr.value);
      }
    }
    for (const xml::Element* child : root.child_elements()) {
      const std::string local = child->local_name();
      const std::string_view lexical = child->name();
      const std::size_t colon = lexical.find(':');
      const std::string* ns_uri = scope_.find_prefix(
          colon == std::string_view::npos ? std::string_view{} : lexical.substr(0, colon));
      const bool is_wsdl = ns_uri != nullptr && *ns_uri == xml::ns::kWsdl;
      if (is_wsdl && local == "documentation") {
        defs.documentation = child->text();
      } else if (is_wsdl && local == "import") {
        wsdl::WsdlImport import;
        import.namespace_uri = child->attribute("namespace").value_or("");
        import.location = child->attribute("location").value_or("");
        record_location(defs, "import", import.namespace_uri, *child);
        defs.imports.push_back(std::move(import));
      } else if (is_wsdl && local == "types") {
        xml::NamespaceScope types_scope = scope_;
        types_scope.push(*child);
        for (const xml::Element* schema_node : child->child_elements()) {
          if (schema_node->local_name() != "schema") continue;
          Result<xsd::Schema> schema = schema_from_xml(*schema_node, types_scope);
          if (!schema.ok()) return schema.error();
          defs.schemas.push_back(std::move(schema.value()));
        }
      } else if (is_wsdl && local == "message") {
        wsdl::Message message;
        message.name = child->attribute("name").value_or("");
        for (const xml::Element* part_node : child->children_named("part")) {
          wsdl::Part part;
          part.name = part_node->attribute("name").value_or("");
          part.element = resolve_qname_attr(*part_node, "element");
          part.type = resolve_qname_attr(*part_node, "type");
          message.parts.push_back(std::move(part));
        }
        defs.messages.push_back(std::move(message));
        record_location(defs, "message", defs.messages.back().name, *child);
      } else if (is_wsdl && local == "portType") {
        defs.port_types.push_back(read_port_type(*child, defs));
        record_location(defs, "portType", defs.port_types.back().name, *child);
      } else if (is_wsdl && local == "binding") {
        Result<wsdl::Binding> binding = read_binding(*child);
        if (!binding.ok()) return binding.error();
        defs.bindings.push_back(std::move(binding.value()));
        record_location(defs, "binding", defs.bindings.back().name, *child);
      } else if (is_wsdl && local == "service") {
        wsdl::Service service;
        service.name = child->attribute("name").value_or("");
        for (const xml::Element* port_node : child->children_named("port")) {
          wsdl::Port port;
          port.name = port_node->attribute("name").value_or("");
          port.binding = resolve_qname_attr(*port_node, "binding");
          if (const xml::Element* address = port_node->child("address")) {
            port.location = address->attribute("location").value_or("");
          }
          service.ports.push_back(std::move(port));
        }
        defs.services.push_back(std::move(service));
        record_location(defs, "service", defs.services.back().name, *child);
      } else {
        defs.extension_elements.push_back(*child);
      }
    }
    return defs;
  }

 private:
  xml::QName resolve_qname_attr(const xml::Element& node, std::string_view attr) {
    std::optional<std::string> raw = node.attribute(attr);
    if (!raw) return {};
    scope_.push(node);
    std::optional<xml::QName> resolved = scope_.resolve(*raw, true);
    scope_.pop();
    if (resolved) return *resolved;
    const std::size_t colon = raw->find(':');
    if (colon == std::string::npos) return xml::QName{"", *raw};
    return xml::QName{"", raw->substr(colon + 1), raw->substr(0, colon)};
  }

  wsdl::PortType read_port_type(const xml::Element& node, wsdl::Definitions& defs) {
    wsdl::PortType port_type;
    port_type.name = node.attribute("name").value_or("");
    for (const xml::Element* op_node : node.children_named("operation")) {
      wsdl::Operation operation;
      operation.name = op_node->attribute("name").value_or("");
      record_location(defs, "operation", port_type.name + "/" + operation.name, *op_node);
      if (const xml::Element* input = op_node->child("input")) {
        operation.input_message = local_part(input->attribute("message").value_or(""));
      }
      if (const xml::Element* output = op_node->child("output")) {
        operation.output_message = local_part(output->attribute("message").value_or(""));
      }
      for (const xml::Element* fault_node : op_node->children_named("fault")) {
        operation.faults.push_back({fault_node->attribute("name").value_or(""),
                                    local_part(fault_node->attribute("message").value_or(""))});
      }
      port_type.operations.push_back(std::move(operation));
    }
    return port_type;
  }

  Result<wsdl::Binding> read_binding(const xml::Element& node) {
    wsdl::Binding binding;
    binding.name = node.attribute("name").value_or("");
    binding.port_type = resolve_qname_attr(node, "type");
    if (const xml::Element* soap_binding = node.child("binding")) {
      binding.transport = soap_binding->attribute("transport").value_or("");
      const std::string style = soap_binding->attribute("style").value_or("document");
      if (style == "rpc") {
        binding.style = wsdl::SoapStyle::kRpc;
      } else if (style == "document") {
        binding.style = wsdl::SoapStyle::kDocument;
      } else {
        return Error{"wsdl.bad-style", "unknown soap:binding style '" + style + "'"};
      }
    }
    for (const xml::Element* op_node : node.children_named("operation")) {
      wsdl::BindingOperation operation;
      operation.name = op_node->attribute("name").value_or("");
      if (const xml::Element* soap_op = op_node->child("operation")) {
        std::optional<std::string> action = soap_op->attribute("soapAction");
        operation.has_soap_action = action.has_value();
        operation.soap_action = action.value_or("");
      } else {
        operation.has_soap_action = false;
      }
      const auto read_use = [](const xml::Element* io) {
        const xml::Element* body = io == nullptr ? nullptr : io->child("body");
        if (body == nullptr) return wsdl::SoapUse::kLiteral;
        return body->attribute("use").value_or("literal") == "encoded" ? wsdl::SoapUse::kEncoded
                                                                       : wsdl::SoapUse::kLiteral;
      };
      operation.input_use = read_use(op_node->child("input"));
      operation.output_use = read_use(op_node->child("output"));
      for (const xml::Element* fault_node : op_node->children_named("fault")) {
        operation.fault_names.push_back(fault_node->attribute("name").value_or(""));
      }
      binding.operations.push_back(std::move(operation));
    }
    return binding;
  }

  xml::NamespaceScope scope_;
};

Result<wsdl::Definitions> parse(std::string_view text) {
  Result<xml::Element> root = xml::parse_element(text);
  if (!root.ok()) return root.error();
  return WsdlReader{}.read(root.value());
}

}  // namespace dom

// --- The comparison ----------------------------------------------------------

/// QName prefixes are presentation-only, so QName == ignores them; the
/// readers must still agree on them (the writer and the resolver use them).
void collect_prefixes(const xsd::ComplexType& type, std::vector<std::string>& out);

void collect_prefixes(const xsd::ElementDecl& element, std::vector<std::string>& out) {
  out.push_back(element.type.prefix());
  out.push_back(element.ref.prefix());
  if (element.inline_type.has_value()) collect_prefixes(*element.inline_type, out);
}

void collect_prefixes(const xsd::ComplexType& type, std::vector<std::string>& out) {
  out.push_back(type.base.prefix());
  for (const xsd::ElementDecl* element : type.elements()) collect_prefixes(*element, out);
  for (const xsd::AttributeDecl& attribute : type.attributes) {
    out.push_back(attribute.type.prefix());
    out.push_back(attribute.ref.prefix());
  }
  for (const xsd::AttributeGroupRef& group : type.attribute_groups) {
    out.push_back(group.ref.prefix());
  }
}

std::vector<std::string> prefixes(const wsdl::Definitions& defs) {
  std::vector<std::string> out;
  for (const xsd::Schema& schema : defs.schemas) {
    for (const xsd::ElementDecl& element : schema.elements) collect_prefixes(element, out);
    for (const xsd::ComplexType& type : schema.complex_types) collect_prefixes(type, out);
    for (const xsd::SimpleTypeDecl& type : schema.simple_types) out.push_back(type.base.prefix());
  }
  for (const wsdl::Message& message : defs.messages) {
    for (const wsdl::Part& part : message.parts) {
      out.push_back(part.element.prefix());
      out.push_back(part.type.prefix());
    }
  }
  for (const wsdl::Binding& binding : defs.bindings) out.push_back(binding.port_type.prefix());
  for (const wsdl::Service& service : defs.services) {
    for (const wsdl::Port& port : service.ports) out.push_back(port.binding.prefix());
  }
  return out;
}

/// Element == ignores source positions; the extension subtrees must carry
/// the same ones (lint anchors findings on them).
void collect_positions(const xml::Element& element, std::vector<std::size_t>& out) {
  out.push_back(element.source_line());
  out.push_back(element.source_column());
  for (const xml::Element* child : element.child_elements()) collect_positions(*child, out);
}

std::vector<std::size_t> extension_positions(const wsdl::Definitions& defs) {
  std::vector<std::size_t> out;
  for (const xml::Element& extension : defs.extension_elements) collect_positions(extension, out);
  return out;
}

/// Asserts that both readers agree on `text`; returns the stream reader's
/// outcome for input-specific assertions.
Result<wsdl::Definitions> expect_equivalent(const std::string& text) {
  Result<wsdl::Definitions> stream = wsdl::parse(text);
  Result<wsdl::Definitions> tree = dom::parse(text);
  EXPECT_EQ(stream.ok(), tree.ok()) << "input:\n" << text;
  if (stream.ok() && tree.ok()) {
    EXPECT_TRUE(stream.value() == tree.value()) << "input:\n" << text;
    EXPECT_EQ(stream->source_locations, tree->source_locations) << "input:\n" << text;
    EXPECT_EQ(stream->extension_elements, tree->extension_elements) << "input:\n" << text;
    EXPECT_EQ(extension_positions(*stream), extension_positions(*tree)) << "input:\n" << text;
    EXPECT_EQ(prefixes(*stream), prefixes(*tree)) << "input:\n" << text;
  } else if (!stream.ok() && !tree.ok()) {
    EXPECT_EQ(stream.error().code, tree.error().code) << "input:\n" << text;
    EXPECT_EQ(stream.error().message, tree.error().message) << "input:\n" << text;
  }
  return stream;
}

// --- Inputs: the served corpus and its mutants ---------------------------------

TEST(WsdlStreamEquivalence, EveryServedDescription) {
  const std::vector<std::string> texts = testing::served_corpus(100);
  ASSERT_EQ(texts.size(), 7239u);
  for (const std::string& text : texts) {
    ASSERT_TRUE(expect_equivalent(text).ok());
  }
}

TEST(WsdlStreamEquivalence, EveryServedCrudDescription) {
  for (const std::string& text : testing::served_corpus(2, frameworks::ServiceShape::kCrud)) {
    ASSERT_TRUE(expect_equivalent(text).ok());
  }
}

TEST(WsdlStreamEquivalence, FuzzMutantsOfACorpusSample) {
  const std::vector<std::string> texts = testing::served_corpus(2);
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < texts.size(); i += 3) {
    for (const fuzz::Mutant& mutant : fuzz::mutate_all(texts[i])) {
      ++mutants;
      if (!expect_equivalent(mutant.wsdl_text).ok()) ++rejected;
    }
    // Higher-order mutants: a structural break stacked on a text-level one.
    for (const fuzz::MutationKind kind : fuzz::all_mutation_kinds()) {
      if (std::optional<fuzz::Mutant> chained = fuzz::mutate_chain(
              texts[i], {fuzz::MutationKind::kInjectForeignElement, kind})) {
        ++mutants;
        if (!expect_equivalent(chained->wsdl_text).ok()) ++rejected;
      }
    }
  }
  EXPECT_GT(mutants, 1000u);
  EXPECT_GT(rejected, 0u);  // the text-level mutants break well-formedness
}

/// Every prefix of one served description: each cut before the root's end
/// tag is an xml.* error that both readers must report identically.
TEST(WsdlStreamEquivalence, EveryTruncationOfOneDescription) {
  const std::vector<std::string> texts = testing::served_corpus(2);
  const std::string& text = texts.back();
  const std::size_t complete = text.rfind('>') + 1;  // only the final newline follows
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(expect_equivalent(text.substr(0, cut)).ok(), cut >= complete) << "cut " << cut;
  }
}

// --- Inputs: the rules the tree walk applies -------------------------------------

std::string wsdl_document(const std::string& body, const std::string& root_attrs = "") {
  return R"(<?xml version="1.0" encoding="UTF-8"?>
<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xs="http://www.w3.org/2001/XMLSchema" xmlns:tns="urn:t" targetNamespace="urn:t")" +
         root_attrs + ">\n" + body + "\n</wsdl:definitions>\n";
}

std::string schema_document(const std::string& schema_body) {
  return wsdl_document("<wsdl:types><xs:schema targetNamespace=\"urn:t\">" + schema_body +
                       "</xs:schema></wsdl:types>");
}

const xsd::ComplexType& only_type(const wsdl::Definitions& defs) {
  return defs.schemas.at(0).complex_types.at(0);
}

TEST(WsdlStreamEquivalence, FirstMatchChildrenAreTheOnesRead) {
  // First sequence, first complexContent, first extension.
  Result<wsdl::Definitions> defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="T">
        <xs:sequence><xs:element name="first" type="xs:int"/></xs:sequence>
        <xs:sequence><xs:element name="second" type="xs:int"/></xs:sequence>
      </xs:complexType>
      <xs:complexType name="D">
        <xs:complexContent>
          <xs:extension base="tns:T"><xs:attribute name="a" type="xs:int"/></xs:extension>
          <xs:extension base="tns:Other"/>
        </xs:complexContent>
        <xs:complexContent><xs:extension base="tns:Third"/></xs:complexContent>
      </xs:complexType>)"));
  ASSERT_TRUE(defs.ok());
  const xsd::ComplexType& plain = defs->schemas[0].complex_types[0];
  ASSERT_EQ(plain.elements().size(), 1u);
  EXPECT_EQ(plain.elements().front()->name, "first");
  const xsd::ComplexType& derived = defs->schemas[0].complex_types[1];
  EXPECT_EQ(derived.base.local_name(), "T");
  EXPECT_EQ(derived.attributes.size(), 1u);

  // First soap:binding: a second one with a bad style is never read.
  defs = expect_equivalent(wsdl_document(R"(
      <wsdl:binding name="B" type="tns:P">
        <soap:binding transport="urn:first" style="rpc"/>
        <soap:binding transport="urn:second" style="sideways"/>
        <wsdl:operation name="op">
          <wsdl:input><soap:body use="encoded"/><soap:body use="literal"/></wsdl:input>
        </wsdl:operation>
      </wsdl:binding>)"));
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(defs->bindings[0].transport, "urn:first");
  EXPECT_EQ(defs->bindings[0].style, wsdl::SoapStyle::kRpc);
  EXPECT_EQ(defs->bindings[0].operations[0].input_use, wsdl::SoapUse::kEncoded);
  EXPECT_FALSE(defs->bindings[0].operations[0].has_soap_action);
}

TEST(WsdlStreamEquivalence, SequenceBeforeComplexContentDefersTheChoice) {
  // The extension, met after the sequence, decides: its content wins and
  // the sequence's bad bound is never an error.
  Result<wsdl::Definitions> defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="D">
        <xs:sequence><xs:element name="own" type="xs:int" minOccurs="many"/></xs:sequence>
        <xs:attribute name="ownAttr" type="xs:int"/>
        <xs:complexContent>
          <xs:extension base="tns:Base">
            <xs:sequence><xs:element name="inherited" type="xs:int"/></xs:sequence>
          </xs:extension>
        </xs:complexContent>
      </xs:complexType>)"));
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(only_type(*defs).base.local_name(), "Base");
  ASSERT_EQ(only_type(*defs).elements().size(), 1u);
  EXPECT_EQ(only_type(*defs).elements().front()->name, "inherited");
  EXPECT_TRUE(only_type(*defs).attributes.empty());

  // A complexContent without an extension leaves the type's own content in
  // force, including its error.
  defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="D">
        <xs:sequence><xs:element name="own" type="xs:int" minOccurs="many"/></xs:sequence>
        <xs:complexContent><xs:restriction base="tns:Base"/></xs:complexContent>
      </xs:complexType>)"));
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code, "xsd.bad-occurs");

  // And an extension's own error is the one reported when it is chosen.
  defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="D">
        <xs:sequence><xs:element name="own" minOccurs="first"/></xs:sequence>
        <xs:complexContent><xs:extension base="tns:Base">
          <xs:sequence><xs:any maxOccurs="second"/></xs:sequence>
        </xs:extension></xs:complexContent>
      </xs:complexType>)"));
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().message, "invalid occurrence bound on xs:any");
}

TEST(WsdlStreamEquivalence, BadBoundInAnIgnoredSecondSequenceIsNoError) {
  Result<wsdl::Definitions> defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="T">
        <xs:sequence><xs:element name="a" type="xs:int"/></xs:sequence>
        <xs:sequence><xs:element name="b" type="xs:int" minOccurs="lots"/></xs:sequence>
      </xs:complexType>)"));
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(only_type(*defs).elements().size(), 1u);

  // The same bound in the first sequence is the document's error, and
  // stops the read before a later one.
  defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="T">
        <xs:sequence>
          <xs:element name="a" type="xs:int" minOccurs="lots" maxOccurs="more"/>
          <xs:element name="b" maxOccurs="later"/>
        </xs:sequence>
      </xs:complexType>)"));
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().message, "invalid minOccurs value 'lots'");
}

TEST(WsdlStreamEquivalence, MessageDeclarationsAreNotInScopeForItsParts) {
  Result<wsdl::Definitions> defs = expect_equivalent(wsdl_document(R"(
      <wsdl:message name="m" xmlns:own="urn:own">
        <wsdl:part name="p" element="own:E"/>
        <wsdl:part name="q" element="mine:E" xmlns:mine="urn:mine"/>
      </wsdl:message>)"));
  ASSERT_TRUE(defs.ok());
  const wsdl::Part& unresolved = defs->messages[0].parts[0];
  EXPECT_EQ(unresolved.element.namespace_uri(), "");
  EXPECT_EQ(unresolved.element.prefix(), "own");
  EXPECT_EQ(defs->messages[0].parts[1].element.namespace_uri(), "urn:mine");
}

TEST(WsdlStreamEquivalence, AttributeDeclarationsAreNotInScopeForItsOwnType) {
  Result<wsdl::Definitions> defs = expect_equivalent(schema_document(R"(
      <xs:complexType name="T">
        <xs:attribute name="a" type="own:Kind" xmlns:own="urn:own"/>
        <xs:attribute name="b" type="outer:Kind"/>
        <xs:sequence><xs:element name="e" type="mine:Kind" xmlns:mine="urn:mine"/></xs:sequence>
      </xs:complexType>)"));
  ASSERT_TRUE(defs.ok());
  const xsd::AttributeDecl& attribute = only_type(*defs).attributes[0];
  EXPECT_EQ(attribute.type.namespace_uri(), "");
  EXPECT_EQ(attribute.type.prefix(), "own");
  // An element's own declarations are in scope for its type=.
  EXPECT_EQ(only_type(*defs).elements().front()->type.namespace_uri(), "urn:mine");
}

TEST(WsdlStreamEquivalence, RootChildDeclaringTheWsdlPrefixItselfIsAnExtension) {
  Result<wsdl::Definitions> defs = expect_equivalent(R"(<definitions targetNamespace="urn:t">
      <w:message name="m" xmlns:w="http://schemas.xmlsoap.org/wsdl/"><w:part name="p"/></w:message>
      <!-- a comment between root children -->
      <wsdl:portType name="P" xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"/>
    </definitions>)");
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(defs->messages.empty());
  EXPECT_TRUE(defs->port_types.empty());
  ASSERT_EQ(defs->extension_elements.size(), 2u);
  EXPECT_EQ(defs->extension_elements[0].name(), "w:message");
  EXPECT_EQ(defs->extension_elements[0].source_line(), 2u);
}

TEST(WsdlStreamEquivalence, XmlErrorLaterInTheDocumentOutranksAWsdlError) {
  // wsdl.bad-style, then a mismatched end tag: the xml.* error wins.
  Result<wsdl::Definitions> defs = expect_equivalent(wsdl_document(R"(
      <wsdl:binding name="B" type="tns:P"><soap:binding style="sideways"/></wsdl:binding>
      <wsdl:service name="S"></wsdl:port>)"));
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code, "xml.mismatched-tag");

  // wsdl.not-a-wsdl, then an undefined entity.
  defs = expect_equivalent("<html><body>&nbsp;</body></html>");
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code.rfind("xml.", 0), 0u);

  // xsd.bad-occurs, then trailing garbage after the root.
  defs = expect_equivalent(schema_document(R"(<xs:element name="e" maxOccurs="x"/>)") + "<extra/>");
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code.rfind("xml.", 0), 0u);

  // Without the later xml.* error each semantic error stands.
  defs = expect_equivalent(wsdl_document(
      R"(<wsdl:binding name="B" type="tns:P"><soap:binding style="sideways"/></wsdl:binding>)"));
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code, "wsdl.bad-style");
  defs = expect_equivalent("<html><body/></html>");
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code, "wsdl.not-a-wsdl");
}

TEST(WsdlStreamEquivalence, DocumentationTextAndOtherRootContent) {
  Result<wsdl::Definitions> defs = expect_equivalent(wsdl_document(R"(
      <wsdl:documentation>first</wsdl:documentation>
      <wsdl:documentation>
        kept <![CDATA[<raw>]]> &amp; <b>nested text is not</b>  <!-- nor comments -->
        <b/>tail
      </wsdl:documentation>
      <wsdl:import namespace="urn:i" location="i.wsdl"><wsdl:documentation/></wsdl:import>
      <tns:vendor a="1">text<tns:inner/><!--kept--></tns:vendor>
      <wsdl:unknown/>)"));
  ASSERT_TRUE(defs.ok());
  EXPECT_NE(defs->documentation.find("<raw>"), std::string::npos);
  EXPECT_EQ(defs->documentation.find("nested"), std::string::npos);
  EXPECT_EQ(defs->imports.size(), 1u);
  EXPECT_EQ(defs->extension_elements.size(), 2u);
}

TEST(WsdlStreamEquivalence, SimpleTypeFacetsAndSchemaImports) {
  Result<wsdl::Definitions> defs = expect_equivalent(schema_document(R"(
      <xs:import namespace="urn:other" schemaLocation="o.xsd"/>
      <xs:annotation><xs:element name="ignored" minOccurs="bad"/></xs:annotation>
      <xs:simpleType name="S">
        <xs:restriction base="xs:string">
          <xs:minLength/><xs:minLength value="9"/>
          <xs:maxLength value=" 12abc"/><xs:totalDigits value="x"/>
          <xs:pattern value="[a-z]+"/><xs:pattern value="ignored"/>
          <xs:enumeration value="a"/><xs:enumeration/>
        </xs:restriction>
        <xs:restriction base="xs:int"/>
      </xs:simpleType>)"));
  ASSERT_TRUE(defs.ok());
  const xsd::SimpleTypeDecl& type = defs->schemas[0].simple_types[0];
  EXPECT_EQ(type.min_length, -1);
  EXPECT_EQ(type.max_length, 12);
  EXPECT_EQ(type.total_digits, 0);
  EXPECT_EQ(type.pattern, "[a-z]+");
  EXPECT_EQ(type.enumeration.size(), 2u);
}

TEST(WsdlStreamEquivalence, OccurrenceBoundsParseLikeStoi) {
  for (const char* bound : {"0", "7", " 3", "+2", "-1", "4x", "unbounded", "", "x",
                            "99999999999", "2147483647", "-2147483648", "2147483648"}) {
    SCOPED_TRACE(bound);
    static_cast<void>(expect_equivalent(schema_document(
        std::string("<xs:element name=\"e\" minOccurs=\"") + bound + "\" maxOccurs=\"" + bound +
        "\"/>")));
    static_cast<void>(expect_equivalent(schema_document(
        std::string("<xs:complexType name=\"T\"><xs:sequence><xs:any minOccurs=\"") + bound +
        "\"/></xs:sequence></xs:complexType>")));
  }
}

TEST(WsdlStreamEquivalence, DefaultNamespaceAndUndeclaredPrefixes) {
  Result<wsdl::Definitions> defs = expect_equivalent(R"(<definitions
      xmlns="http://schemas.xmlsoap.org/wsdl/" xmlns:s="http://www.w3.org/2001/XMLSchema"
      targetNamespace="urn:t">
    <types><s:schema xmlns="urn:default">
      <s:element name="e" type="Local"/><s:element ref="ghost:E"/>
    </s:schema></types>
    <message name="m"><part name="p" type="Bare"/></message>
    <binding name="B" type="ghost:P"/>
    <service name="S"><port name="p" binding="B"><address location="x"/></port></service>
  </definitions>)");
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(defs->schemas[0].elements[0].type.namespace_uri(), "urn:default");
  EXPECT_EQ(defs->schemas[0].elements[1].ref.prefix(), "ghost");
  EXPECT_EQ(defs->services[0].ports[0].location, "x");
}

}  // namespace
}  // namespace wsx
