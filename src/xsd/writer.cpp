#include "xsd/writer.hpp"

#include <charconv>

#include "xml/parser.hpp"

namespace wsx::xsd {
namespace {

class SchemaWriter {
 public:
  SchemaWriter(xml::Emitter& out, const Schema& schema, const SchemaWriteOptions& options)
      : out_(out), schema_(schema), options_(options) {
    lexical_.reserve(64);
  }

  void write() {
    start("schema");
    xml::AttributeList root;
    root.declare_namespace(options_.schema_prefix, xml::ns::kXsd);
    if (!schema_.target_namespace.empty()) {
      root.declare_namespace(options_.target_prefix, schema_.target_namespace);
      root.set("targetNamespace", schema_.target_namespace);
    }
    root.set("elementFormDefault", schema_.element_form_qualified ? "qualified" : "unqualified");
    root.write(out_);
    for (const SchemaImport& import : schema_.imports) {
      start("import");
      out_.attr("namespace", import.namespace_uri);
      if (!import.schema_location.empty()) out_.attr("schemaLocation", import.schema_location);
      out_.end();
    }
    for (const ElementDecl& element : schema_.elements) write_element(element);
    for (const ComplexType& type : schema_.complex_types) write_complex_type(type);
    for (const SimpleTypeDecl& type : schema_.simple_types) write_simple_type(type);
    out_.end();
  }

 private:
  void start(std::string_view local) { out_.start(options_.schema_prefix, local); }

  /// Writes `name="value"` for a QName using the writer's prefix
  /// conventions.
  void qname_attr(std::string_view attr, const xml::QName& name) {
    lexical_.clear();
    if (name.namespace_uri() == xml::ns::kXsd) {
      lexical_.append(options_.schema_prefix).append(":").append(name.local_name());
    } else if (name.namespace_uri() == schema_.target_namespace) {
      lexical_.append(options_.target_prefix).append(":").append(name.local_name());
    } else if (name.namespace_uri() == xml::ns::kXmlNs) {
      lexical_.append("xml:").append(name.local_name());
    } else if (name.prefix().empty()) {
      // Foreign namespace without a stored prefix: the bare name, mirroring
      // the under-declared references real generators produce.
      lexical_.append(name.local_name());
    } else {
      lexical_.append(name.prefix()).append(":").append(name.local_name());
    }
    out_.attr(attr, lexical_);
  }

  void int_attr(std::string_view attr, int value) {
    char digits[16];
    const std::to_chars_result end = std::to_chars(digits, digits + sizeof digits, value);
    out_.attr(attr, std::string_view(digits, static_cast<std::size_t>(end.ptr - digits)));
  }

  void occurs_attrs(int min_occurs, int max_occurs) {
    if (min_occurs != 1) int_attr("minOccurs", min_occurs);
    if (max_occurs == kUnbounded) {
      out_.attr("maxOccurs", "unbounded");
    } else if (max_occurs != 1) {
      int_attr("maxOccurs", max_occurs);
    }
  }

  void write_element(const ElementDecl& element) {
    start("element");
    if (element.is_ref()) {
      qname_attr("ref", element.ref);
    } else {
      out_.attr("name", element.name);
      if (!element.type.empty()) qname_attr("type", element.type);
    }
    occurs_attrs(element.min_occurs, element.max_occurs);
    if (element.nillable) out_.attr("nillable", "true");
    if (element.inline_type.has_value()) write_complex_type(*element.inline_type);
    out_.end();
  }

  void write_complex_type(const ComplexType& type) {
    start("complexType");
    if (!type.name.empty()) out_.attr("name", type.name);
    // Derived types wrap their content in complexContent/extension.
    if (type.is_derived()) {
      start("complexContent");
      start("extension");
      qname_attr("base", type.base);
    }
    if (!type.particles.empty()) {
      start("sequence");
      for (const Particle& particle : type.particles) {
        if (const ElementDecl* element = std::get_if<ElementDecl>(&particle)) {
          write_element(*element);
        } else if (const AnyParticle* any = std::get_if<AnyParticle>(&particle)) {
          start("any");
          out_.attr("namespace", any->namespace_constraint);
          out_.attr("processContents", any->process_contents);
          occurs_attrs(any->min_occurs, any->max_occurs);
          out_.end();
        }
      }
      out_.end();
    }
    for (const AttributeDecl& attribute : type.attributes) {
      start("attribute");
      if (attribute.is_ref()) {
        qname_attr("ref", attribute.ref);
      } else {
        out_.attr("name", attribute.name);
        if (!attribute.type.empty()) qname_attr("type", attribute.type);
      }
      if (attribute.required) out_.attr("use", "required");
      out_.end();
    }
    for (const AttributeGroupRef& group : type.attribute_groups) {
      start("attributeGroup");
      qname_attr("ref", group.ref);
      out_.end();
    }
    if (type.is_derived()) {
      out_.end();  // extension
      out_.end();  // complexContent
    }
    out_.end();
  }

  void write_simple_type(const SimpleTypeDecl& type) {
    start("simpleType");
    if (!type.name.empty()) out_.attr("name", type.name);
    start("restriction");
    qname_attr("base", type.base);
    const auto int_facet = [&](std::string_view facet, int value) {
      if (value < 0) return;
      start(facet);
      int_attr("value", value);
      out_.end();
    };
    int_facet("minLength", type.min_length);
    int_facet("maxLength", type.max_length);
    int_facet("totalDigits", type.total_digits);
    if (!type.pattern.empty()) {
      start("pattern");
      out_.attr("value", type.pattern);
      out_.end();
    }
    for (const std::string& value : type.enumeration) {
      start("enumeration");
      out_.attr("value", value);
      out_.end();
    }
    out_.end();  // restriction
    out_.end();
  }

  xml::Emitter& out_;
  const Schema& schema_;
  const SchemaWriteOptions& options_;
  std::string lexical_;  ///< reused for QName attribute values
};

}  // namespace

void write(xml::Emitter& out, const Schema& schema, const SchemaWriteOptions& options) {
  SchemaWriter{out, schema, options}.write();
}

std::string to_string(const Schema& schema, const SchemaWriteOptions& options) {
  xml::Emitter out;
  out.declaration();
  write(out, schema, options);
  return out.take();
}

xml::Element to_xml(const Schema& schema, const SchemaWriteOptions& options) {
  return std::move(xml::parse_element(to_string(schema, options)).value());
}

}  // namespace wsx::xsd
