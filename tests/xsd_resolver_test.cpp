// Unit tests for schema reference resolution (src/xsd/resolver.*) — the
// substrate behind the paper's s:schema / s:lang / wsa-reference failures.
#include <gtest/gtest.h>

#include "xsd/resolver.hpp"

namespace wsx::xsd {
namespace {

Schema base_schema() {
  Schema schema;
  schema.target_namespace = "urn:svc";
  ComplexType type;
  type.name = "Payload";
  ElementDecl field;
  field.name = "value";
  field.type = qname(Builtin::kString);
  type.particles.emplace_back(std::move(field));
  schema.complex_types.push_back(std::move(type));
  return schema;
}

TEST(Resolver, CleanSchemaResolves) {
  const ResolutionReport report = resolve({base_schema()});
  EXPECT_TRUE(report.clean());
}

TEST(Resolver, BuiltinTypesResolve) {
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "stamp";
  element.type = qname(Builtin::kDateTime);
  schema.complex_types.front().particles.emplace_back(std::move(element));
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, LocalTypeReferencesResolve) {
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "self";
  element.type = xml::QName{"urn:svc", "Payload"};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, SimpleTypeReferencesResolve) {
  Schema schema = base_schema();
  SimpleTypeDecl color;
  color.name = "Color";
  color.base = qname(Builtin::kString);
  color.enumeration = {"R"};
  schema.simple_types.push_back(color);
  ElementDecl element;
  element.name = "tint";
  element.type = xml::QName{"urn:svc", "Color"};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, UnknownForeignNamespaceTypeRefIsUnresolved) {
  // The Metro W3CEndpointReference shape: a type= into a namespace that is
  // declared but never imported.
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "address";
  element.type = xml::QName{std::string(xml::ns::kWsAddressing), "EndpointReferenceType"};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_EQ(report.unresolved.front().kind, RefKind::kTypeRef);
  EXPECT_TRUE(report.has_unresolved(RefKind::kTypeRef));
}

TEST(Resolver, ImportWithLocationVouchesForNamespace) {
  Schema schema = base_schema();
  schema.imports.push_back({std::string(xml::ns::kWsAddressing), "wsa.xsd"});
  ElementDecl element;
  element.name = "address";
  element.type = xml::QName{std::string(xml::ns::kWsAddressing), "EndpointReferenceType"};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, ExternalNamespacesParameterVouches) {
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "address";
  element.type = xml::QName{"urn:vouched", "Thing"};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  EXPECT_FALSE(resolve({schema}).clean());
  EXPECT_TRUE(resolve({schema}, {"urn:vouched"}).clean());
}

TEST(Resolver, MissRemainsUnresolvedInsideLocalNamespace) {
  // A reference into the schema's *own* namespace must actually exist —
  // an import cannot vouch for the inline namespace.
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "ghost";
  element.type = xml::QName{"urn:svc", "Missing"};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
}

TEST(Resolver, SchemaElementRefIsUnresolved) {
  // The WCF DataSet idiom: <xs:element ref="s:schema"/>.
  Schema schema = base_schema();
  ElementDecl ref;
  ref.ref = xml::QName{std::string(xml::ns::kXsd), "schema", "s"};
  schema.complex_types.front().particles.emplace_back(std::move(ref));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_EQ(report.unresolved.front().kind, RefKind::kElementRef);
  EXPECT_EQ(report.unresolved.front().target.local_name(), "schema");
}

TEST(Resolver, LocalElementRefResolves) {
  Schema schema = base_schema();
  ElementDecl top;
  top.name = "payload";
  top.type = xml::QName{"urn:svc", "Payload"};
  schema.elements.push_back(top);
  ElementDecl ref;
  ref.ref = xml::QName{"urn:svc", "payload"};
  schema.complex_types.front().particles.emplace_back(std::move(ref));
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, XsdLangAttributeRefIsUnresolved) {
  // The "s:lang" idiom: an attribute ref into the XML *Schema* namespace.
  Schema schema = base_schema();
  AttributeDecl lang;
  lang.ref = xml::QName{std::string(xml::ns::kXsd), "lang", "s"};
  schema.complex_types.front().attributes.push_back(std::move(lang));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_EQ(report.unresolved.front().kind, RefKind::kAttributeRef);
}

TEST(Resolver, XmlLangAttributeRefResolves) {
  // xml:lang is predeclared by the XML namespace itself.
  Schema schema = base_schema();
  AttributeDecl lang;
  lang.ref = xml::QName{std::string(xml::ns::kXmlNs), "lang", "xml"};
  schema.complex_types.front().attributes.push_back(std::move(lang));
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, ForeignAttributeRefIsUnresolved) {
  // The JBossWS W3CEndpointReference shape.
  Schema schema = base_schema();
  AttributeDecl attr;
  attr.ref = xml::QName{std::string(xml::ns::kWsAddressing), "IsReferenceParameter", "wsa"};
  schema.complex_types.front().attributes.push_back(std::move(attr));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_EQ(report.unresolved.front().kind, RefKind::kAttributeRef);
}

TEST(Resolver, AttributeGroupWithoutLocationIsUnresolved) {
  // The JAXB xml:specialAttrs idiom: import without a schemaLocation.
  Schema schema = base_schema();
  schema.imports.push_back({std::string(xml::ns::kXmlNs), ""});
  schema.complex_types.front().attribute_groups.push_back(
      {xml::QName{std::string(xml::ns::kXmlNs), "specialAttrs", "xml"}});
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_EQ(report.unresolved.front().kind, RefKind::kAttributeGroupRef);
}

TEST(Resolver, AttributeGroupWithLocationResolves) {
  Schema schema = base_schema();
  schema.imports.push_back({std::string(xml::ns::kXmlNs), "xml.xsd"});
  schema.complex_types.front().attribute_groups.push_back(
      {xml::QName{std::string(xml::ns::kXmlNs), "specialAttrs", "xml"}});
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Resolver, UndeclaredPrefixIsFlagged) {
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "x";
  element.type = xml::QName{"", "Ghost", "ghost"};  // prefix never declared
  schema.complex_types.front().particles.emplace_back(std::move(element));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_TRUE(report.unresolved.front().undeclared_prefix);
}

TEST(Resolver, DualTypeDeclarationIsAValidityIssue) {
  Schema schema = base_schema();
  ElementDecl element;
  element.name = "pattern";
  element.type = qname(Builtin::kString);
  element.inline_type = Box<ComplexType>{ComplexType{}};
  schema.complex_types.front().particles.emplace_back(std::move(element));
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues.front().code, "xsd.dual-type-declaration");
}

TEST(Resolver, UnnamedTopLevelElementIsAValidityIssue) {
  Schema schema = base_schema();
  schema.elements.push_back(ElementDecl{});  // no name, no ref
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues.front().code, "xsd.unnamed-top-level-element");
}

TEST(Resolver, ChecksNestedInlineTypes) {
  Schema schema = base_schema();
  ComplexType inner;
  ElementDecl bad;
  bad.name = "deep";
  bad.type = xml::QName{"urn:unknown", "T"};
  inner.particles.emplace_back(std::move(bad));
  ElementDecl holder;
  holder.name = "holder";
  holder.inline_type = Box<ComplexType>{std::move(inner)};
  schema.complex_types.front().particles.emplace_back(std::move(holder));
  EXPECT_FALSE(resolve({schema}).clean());
}

TEST(Resolver, CrossSchemaReferencesResolve) {
  Schema a = base_schema();
  Schema b;
  b.target_namespace = "urn:other";
  ComplexType type;
  type.name = "Remote";
  b.complex_types.push_back(type);
  ElementDecl element;
  element.name = "r";
  element.type = xml::QName{"urn:other", "Remote"};
  a.complex_types.front().particles.emplace_back(std::move(element));
  EXPECT_TRUE(resolve({a, b}).clean());
}

/// An element of `type`, or of an inline anonymous type when `type` is empty.
ElementDecl element_of(std::string name, xml::QName type, ComplexType inline_type = {}) {
  ElementDecl element;
  element.name = std::move(name);
  element.type = std::move(type);
  if (element.type.empty()) element.inline_type = Box<ComplexType>{std::move(inline_type)};
  return element;
}

// R2102 and R2800 details and lint messages quote the context text, so
// every shape is spelled out here, nested two levels below its root.
TEST(Resolver, ContextTextSpellsEveryShape) {
  const xml::QName ghost{"urn:ghost", "Ghost"};

  ComplexType leaf;  // complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf'
  leaf.base = ghost;
  leaf.particles.emplace_back(element_of("deep", ghost));
  ElementDecl schema_ref;
  schema_ref.ref = xml::QName{std::string(xml::ns::kXsd), "schema", "s"};
  leaf.particles.emplace_back(std::move(schema_ref));
  AttributeDecl typed;
  typed.name = "unit";
  typed.type = ghost;
  leaf.attributes.push_back(std::move(typed));
  AttributeDecl lang;
  lang.ref = xml::QName{std::string(xml::ns::kXsd), "lang", "s"};
  leaf.attributes.push_back(std::move(lang));
  leaf.attribute_groups.push_back({xml::QName{"urn:ghost", "specialAttrs"}});

  ComplexType inner;
  inner.particles.emplace_back(element_of("leaf", {}, std::move(leaf)));
  ElementDecl dual = element_of("dual", qname(Builtin::kString));
  dual.inline_type = Box<ComplexType>{ComplexType{}};
  inner.particles.emplace_back(std::move(dual));

  ComplexType outer;
  outer.name = "Outer";
  outer.particles.emplace_back(element_of("inner", {}, std::move(inner)));

  ComplexType body;  // top-level element 'request' (anonymous type) / element 'body'
  body.particles.emplace_back(element_of("stamp", ghost));
  ComplexType request;
  request.particles.emplace_back(element_of("body", {}, std::move(body)));

  SimpleTypeDecl code;
  code.name = "Code";
  code.base = ghost;

  Schema schema;
  schema.target_namespace = "urn:svc";
  schema.elements.push_back(element_of("plain", ghost));
  schema.elements.push_back(element_of("request", {}, std::move(request)));
  schema.elements.push_back(ElementDecl{});
  schema.complex_types.push_back(std::move(outer));
  schema.simple_types.push_back(std::move(code));

  const ResolutionReport report = resolve({schema});
  const std::vector<std::pair<RefKind, std::string>> want_unresolved = {
      {RefKind::kTypeRef, "top-level element 'plain'"},
      {RefKind::kTypeRef,
       "top-level element 'request' (anonymous type) / element 'body' (anonymous type) / "
       "element 'stamp'"},
      {RefKind::kTypeRef,
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf' (anonymous "
       "type) / extension base"},
      {RefKind::kTypeRef,
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf' (anonymous "
       "type) / element 'deep'"},
      {RefKind::kElementRef,
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf' (anonymous "
       "type) / element ''"},
      {RefKind::kTypeRef,
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf' (anonymous "
       "type) / attribute 'unit'"},
      {RefKind::kAttributeRef,
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf' (anonymous "
       "type) / attribute ref"},
      {RefKind::kAttributeGroupRef,
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'leaf' (anonymous "
       "type) / attributeGroup"},
      {RefKind::kTypeRef, "simpleType 'Code'"},
  };
  std::vector<std::pair<RefKind, std::string>> unresolved;
  for (const UnresolvedRef& ref : report.unresolved) unresolved.emplace_back(ref.kind, ref.context);
  EXPECT_EQ(unresolved, want_unresolved);

  const std::vector<ValidityIssue> want_issues = {
      {"xsd.unnamed-top-level-element", "schema urn:svc"},
      {"xsd.dual-type-declaration",
       "complexType 'Outer' / element 'inner' (anonymous type) / element 'dual'"},
  };
  EXPECT_EQ(report.issues, want_issues);
}

TEST(Resolver, RefKindNames) {
  EXPECT_STREQ(to_string(RefKind::kTypeRef), "type reference");
  EXPECT_STREQ(to_string(RefKind::kElementRef), "element reference");
  EXPECT_STREQ(to_string(RefKind::kAttributeRef), "attribute reference");
  EXPECT_STREQ(to_string(RefKind::kAttributeGroupRef), "attributeGroup reference");
}

}  // namespace
}  // namespace wsx::xsd
