#include "xsd/resolver.hpp"

#include <algorithm>
#include <string_view>

namespace wsx::xsd {

const char* to_string(RefKind kind) {
  switch (kind) {
    case RefKind::kTypeRef:
      return "type reference";
    case RefKind::kElementRef:
      return "element reference";
    case RefKind::kAttributeRef:
      return "attribute reference";
    case RefKind::kAttributeGroupRef:
      return "attributeGroup reference";
  }
  return "reference";
}

bool ResolutionReport::has_unresolved(RefKind kind) const {
  return std::any_of(unresolved.begin(), unresolved.end(),
                     [kind](const UnresolvedRef& ref) { return ref.kind == kind; });
}

namespace {

/// Where a component sits, as the parts its reported text is built from:
/// the enclosing context's text, then `literal`, then `name` in quotes when
/// set. The parts view the schemas being walked; the text is rendered only
/// when something there is reported, e.g. "complexType 'X' / element 'y'".
struct Context {
  const Context* parent = nullptr;
  std::string_view literal;
  const std::string* name = nullptr;

  void render_into(std::string& out) const {
    if (parent != nullptr) parent->render_into(out);
    out += literal;
    if (name != nullptr) {
      out += " '";
      out += *name;
      out += '\'';
    }
  }

  std::string render() const {
    std::string out;
    render_into(out);
    return out;
  }
};

class Resolver {
 public:
  Resolver(const std::vector<Schema>& schemas,
           const std::vector<std::string>& external_namespaces)
      : schemas_(schemas), external_namespaces_(external_namespaces) {}

  ResolutionReport run() {
    for (const Schema& schema : schemas_) {
      for (const ElementDecl& element : schema.elements) {
        if (element.name.empty() && !element.is_ref()) {
          report_.issues.push_back(
              {"xsd.unnamed-top-level-element", "schema " + schema.target_namespace});
        }
        check_element(element, {nullptr, "top-level element", &element.name});
      }
      for (const ComplexType& type : schema.complex_types) {
        check_complex_type(type, {nullptr, "complexType", &type.name});
      }
      for (const SimpleTypeDecl& type : schema.simple_types) {
        if (!type.base.empty()) {
          check_type_ref(type.base, {nullptr, "simpleType", &type.name});
        }
      }
    }
    return std::move(report_);
  }

 private:
  bool namespace_known(const std::string& uri) const {
    if (uri == xml::ns::kXsd || uri == xml::ns::kXmlNs) return true;
    for (const Schema& schema : schemas_) {
      if (schema.target_namespace == uri) return true;
    }
    // A namespace is also known when some schema imports it *with* a
    // resolvable location, or when the caller vouches for it.
    for (const Schema& schema : schemas_) {
      for (const SchemaImport& import : schema.imports) {
        if (import.namespace_uri == uri && !import.schema_location.empty()) return true;
      }
    }
    return std::find(external_namespaces_.begin(), external_namespaces_.end(), uri) !=
           external_namespaces_.end();
  }

  bool type_exists(const xml::QName& name) const {
    if (is_builtin(name)) return true;
    for (const Schema& schema : schemas_) {
      if (schema.target_namespace != name.namespace_uri()) continue;
      if (schema.find_complex_type(name.local_name()) != nullptr) return true;
      if (schema.find_simple_type(name.local_name()) != nullptr) return true;
    }
    return false;
  }

  bool element_exists(const xml::QName& name) const {
    for (const Schema& schema : schemas_) {
      if (schema.target_namespace != name.namespace_uri()) continue;
      if (schema.find_element(name.local_name()) != nullptr) return true;
    }
    return false;
  }

  void add_unresolved(RefKind kind, const xml::QName& target, const Context& context) {
    report_.unresolved.push_back(
        {kind, target, context.render(), /*undeclared_prefix=*/target.namespace_uri().empty()});
  }

  void check_type_ref(const xml::QName& type, const Context& context) {
    if (type.empty()) return;
    if (type.namespace_uri().empty()) {
      add_unresolved(RefKind::kTypeRef, type, context);
      return;
    }
    if (type_exists(type)) return;
    // Unknown type in a known-but-opaque external namespace: tolerated (the
    // import promises a definition elsewhere). Unknown namespace entirely,
    // or a miss inside an inline schema namespace: unresolved.
    if (type.namespace_uri() != xml::ns::kXsd && namespace_known(type.namespace_uri()) &&
        !is_local_namespace(type.namespace_uri())) {
      return;
    }
    add_unresolved(RefKind::kTypeRef, type, context);
  }

  bool is_local_namespace(const std::string& uri) const {
    return std::any_of(schemas_.begin(), schemas_.end(),
                       [&uri](const Schema& s) { return s.target_namespace == uri; });
  }

  void check_element(const ElementDecl& element, const Context& context) {
    if (!element.type.empty() && element.inline_type.has_value()) {
      report_.issues.push_back({"xsd.dual-type-declaration", context.render()});
    }
    if (element.is_ref()) {
      // xs:schema itself is not a declarable element; a ref to it (the WCF
      // DataSet idiom) never resolves.
      if (element.ref.namespace_uri().empty() || !element_exists(element.ref)) {
        add_unresolved(RefKind::kElementRef, element.ref, context);
      }
      return;
    }
    check_type_ref(element.type, context);
    if (element.inline_type.has_value()) {
      check_complex_type(*element.inline_type, {&context, " (anonymous type)"});
    }
  }

  void check_complex_type(const ComplexType& type, const Context& context) {
    if (type.is_derived()) {
      check_type_ref(type.base, {&context, " / extension base"});
    }
    for (const Particle& particle : type.particles) {
      if (const ElementDecl* element = std::get_if<ElementDecl>(&particle)) {
        check_element(*element, {&context, " / element", &element->name});
      }
    }
    for (const AttributeDecl& attribute : type.attributes) {
      if (attribute.is_ref()) {
        const bool known_xml_attr = attribute.ref.namespace_uri() == xml::ns::kXmlNs &&
                                    attribute.ref.local_name() == "lang";
        // xml:lang is predeclared by the XML namespace; lang in any other
        // namespace (the paper's "s:lang") is not a declarable attribute.
        if (!known_xml_attr) {
          add_unresolved(RefKind::kAttributeRef, attribute.ref, {&context, " / attribute ref"});
        }
      } else if (!attribute.type.empty()) {
        check_type_ref(attribute.type, {&context, " / attribute", &attribute.name});
      }
    }
    for (const AttributeGroupRef& group : type.attribute_groups) {
      // We model no attributeGroup declarations, so a group ref resolves
      // only when its namespace is imported *with* a schema location (the
      // definition is promised elsewhere) or vouched for by the caller.
      // An import without a location — the JAXB "xml:specialAttrs" idiom —
      // leaves the reference dangling.
      bool promised = std::find(external_namespaces_.begin(), external_namespaces_.end(),
                                group.ref.namespace_uri()) != external_namespaces_.end();
      for (const Schema& schema : schemas_) {
        for (const SchemaImport& import : schema.imports) {
          if (import.namespace_uri == group.ref.namespace_uri() &&
              !import.schema_location.empty()) {
            promised = true;
          }
        }
      }
      if (!promised) {
        add_unresolved(RefKind::kAttributeGroupRef, group.ref, {&context, " / attributeGroup"});
      }
    }
  }

  const std::vector<Schema>& schemas_;
  const std::vector<std::string>& external_namespaces_;
  ResolutionReport report_;
};

}  // namespace

ResolutionReport resolve(const std::vector<Schema>& schemas,
                         const std::vector<std::string>& external_namespaces) {
  return Resolver{schemas, external_namespaces}.run();
}

}  // namespace wsx::xsd
