// policy_matrix_cases.hpp — the client tolerance matrix's descriptions: one
// synthetic description per feature, each with the reaction (Error /
// Warning / Silent) every Table II client tool is expected to show. The
// matrix test checks those cells; the generation golden pins the full
// results over the same descriptions.
#pragma once

#include <ostream>

#include "test_helpers.hpp"
#include "wsdl/model.hpp"

namespace wsx::testing {

/// Expected reactions in Table II client order:
/// Metro, Axis1, Axis2, CXF, JBossWS, C#, VB, JScript, gSOAP, Zend, suds.
/// 'E' = generation error, 'W' = warning (no error), 'S' = silent success.
struct FeatureCase {
  const char* name;
  void (*inject)(wsdl::Definitions&);
  const char* expected;  // 11 chars
};

/// Prints a case as its name, so the parameter text gtest (and ctest's
/// discovered test names) shows is stable across builds instead of the
/// struct's raw pointer bytes.
inline void PrintTo(const FeatureCase& feature, std::ostream* out) { *out << feature.name; }

inline void foreign_type_ref(wsdl::Definitions& defs) {
  xsd::ElementDecl bad;
  bad.name = "address";
  bad.type = xml::QName{std::string(xml::ns::kWsAddressing), "EndpointReferenceType", "wsa"};
  defs.schemas.front().complex_types.front().particles.emplace_back(std::move(bad));
  defs.extra_namespaces.emplace_back("wsa", std::string(xml::ns::kWsAddressing));
}

inline void foreign_attr_ref(wsdl::Definitions& defs) {
  xsd::AttributeDecl attr;
  attr.ref = xml::QName{std::string(xml::ns::kWsAddressing), "IsReferenceParameter", "wsa"};
  defs.schemas.front().complex_types.front().attributes.push_back(std::move(attr));
  defs.extra_namespaces.emplace_back("wsa", std::string(xml::ns::kWsAddressing));
}

inline void dangling_attr_group(wsdl::Definitions& defs) {
  defs.schemas.front().complex_types.front().attribute_groups.push_back(
      {xml::QName{std::string(xml::ns::kXmlNs), "specialAttrs", "xml"}});
  defs.schemas.front().imports.push_back({std::string(xml::ns::kXmlNs), ""});
}

inline void schema_element_ref(wsdl::Definitions& defs) {
  xsd::ElementDecl ref;
  ref.ref = xml::QName{std::string(xml::ns::kXsd), "schema", "s"};
  defs.schemas.front().complex_types.front().particles.emplace_back(std::move(ref));
}

inline void xsd_attr_ref(wsdl::Definitions& defs) {
  xsd::AttributeDecl lang;
  lang.ref = xml::QName{std::string(xml::ns::kXsd), "lang", "s"};
  defs.schemas.front().complex_types.front().attributes.push_back(std::move(lang));
}

inline void wildcard_only(wsdl::Definitions& defs) {
  xsd::ComplexType table;
  table.name = "DataTable";
  table.particles.emplace_back(xsd::AnyParticle{});
  defs.schemas.front().complex_types.push_back(std::move(table));
}

inline void zero_operations(wsdl::Definitions& defs) {
  defs.port_types.front().operations.clear();
  defs.bindings.front().operations.clear();
  defs.messages.clear();
  defs.schemas.front().elements.clear();
}

inline void dual_type(wsdl::Definitions& defs) {
  defs.schemas.front().elements.front().type = xsd::qname(xsd::Builtin::kString);
}

inline void encoded_use(wsdl::Definitions& defs) {
  defs.bindings.front().operations.front().input_use = wsdl::SoapUse::kEncoded;
}

inline void missing_soap_action(wsdl::Definitions& defs) {
  defs.bindings.front().operations.front().has_soap_action = false;
}

inline void extension_element(wsdl::Definitions& defs) {
  xml::Element stanza{"jaxws:bindings"};
  stanza.declare_namespace("jaxws", "http://java.sun.com/xml/ns/jaxws");
  defs.extension_elements.push_back(std::move(stanza));
}

inline void missing_tns(wsdl::Definitions& defs) { defs.target_namespace.clear(); }

inline void dangling_message(wsdl::Definitions& defs) { defs.messages.erase(defs.messages.begin()); }

inline void dangling_part(wsdl::Definitions& defs) {
  defs.schemas.front().elements.front().name = "echoRenamed";
}

inline void duplicate_operations(wsdl::Definitions& defs) {
  defs.port_types.front().operations.push_back(defs.port_types.front().operations.front());
  defs.bindings.front().operations.push_back(defs.bindings.front().operations.front());
}

inline void locationless_import(wsdl::Definitions& defs) {
  defs.imports.push_back({"urn:elsewhere", ""});
}

//                                   M  A1 A2 C  J  C# VB JS gS Z  su
inline constexpr FeatureCase kPolicyMatrixCases[] = {
    {"foreign-type-ref", foreign_type_ref, "EEEEEEEESSE"},
    {"foreign-attr-ref", foreign_attr_ref, "EESEEEEESSE"},
    {"dangling-attr-group", dangling_attr_group, "SSSSSEEEESS"},
    {"schema-element-ref", schema_element_ref, "ESSEESSSSSS"},
    {"xsd-attr-ref", xsd_attr_ref, "ESSEESSSSSS"},
    {"wildcard-only-content", wildcard_only, "ESSEESSSSSS"},
    {"zero-operations", zero_operations, "ESESSEEEWWW"},
    {"dual-type-declaration", dual_type, "WSSSSEEESSS"},
    {"encoded-use", encoded_use, "SSSSSWWWSSW"},
    {"missing-soap-action", missing_soap_action, "SSSSSSSSSSS"},
    {"unknown-extension-element", extension_element, "SSSSSSSWSSS"},
    // Clearing the targetNamespace also strands the tns-qualified part
    // references, so the stricter binders see a dangling part as well.
    {"missing-target-namespace", missing_tns, "ESEEEEEEWSE"},
    {"dangling-message-reference", dangling_message, "ESSEEEEESSS"},
    {"dangling-part-reference", dangling_part, "ESEEEEEESSE"},
    {"duplicate-operations", duplicate_operations, "ESEEEEEESSS"},
    {"locationless-import", locationless_import, "ESSEEEEEWSS"},
};

}  // namespace wsx::testing
