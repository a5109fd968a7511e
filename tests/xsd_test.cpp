// Unit tests for the XSD model, writer and reader (src/xsd/).
#include <gtest/gtest.h>

#include "xsd/builtin.hpp"
#include "xsd/reader.hpp"
#include "xsd/writer.hpp"

namespace wsx::xsd {
namespace {

TEST(Builtin, RoundTripsThroughLocalName) {
  for (Builtin type : {Builtin::kString, Builtin::kInt, Builtin::kDateTime,
                       Builtin::kAnyType, Builtin::kUnsignedLong, Builtin::kQNameType}) {
    std::optional<Builtin> reparsed = builtin_from_local_name(local_name(type));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, type);
  }
}

TEST(Builtin, QNameUsesSchemaNamespace) {
  const xml::QName name = qname(Builtin::kInt);
  EXPECT_EQ(name.namespace_uri(), xml::ns::kXsd);
  EXPECT_EQ(name.local_name(), "int");
}

TEST(Builtin, IsBuiltinRejectsNonSchemaNames) {
  EXPECT_TRUE(is_builtin(xml::QName{std::string(xml::ns::kXsd), "string"}));
  EXPECT_FALSE(is_builtin(xml::QName{std::string(xml::ns::kXsd), "schema"}));
  EXPECT_FALSE(is_builtin(xml::QName{"urn:x", "string"}));
}

ComplexType make_flat_type() {
  ComplexType type;
  type.name = "Point";
  ElementDecl x;
  x.name = "x";
  x.type = qname(Builtin::kInt);
  ElementDecl y;
  y.name = "y";
  y.type = qname(Builtin::kInt);
  type.particles.emplace_back(std::move(x));
  type.particles.emplace_back(std::move(y));
  return type;
}

TEST(Model, ElementsFilterSkipsWildcards) {
  ComplexType type = make_flat_type();
  type.particles.emplace_back(AnyParticle{});
  EXPECT_EQ(type.elements().size(), 2u);
  EXPECT_EQ(type.any_count(), 1u);
}

TEST(Model, NestingDepthCountsInlineTypes) {
  ComplexType flat = make_flat_type();
  EXPECT_EQ(flat.nesting_depth(), 1u);

  ComplexType outer;
  outer.name = "Outer";
  ElementDecl holder;
  holder.name = "inner";
  holder.inline_type = Box<ComplexType>{make_flat_type()};
  outer.particles.emplace_back(std::move(holder));
  EXPECT_EQ(outer.nesting_depth(), 2u);
}

TEST(Model, IsArrayFollowsOccurrence) {
  ElementDecl element;
  EXPECT_FALSE(element.is_array());
  element.max_occurs = kUnbounded;
  EXPECT_TRUE(element.is_array());
  element.max_occurs = 4;
  EXPECT_TRUE(element.is_array());
}

TEST(Model, SchemaLookupHelpers) {
  Schema schema;
  schema.target_namespace = "urn:t";
  schema.complex_types.push_back(make_flat_type());
  SimpleTypeDecl simple;
  simple.name = "Color";
  schema.simple_types.push_back(simple);
  ElementDecl top;
  top.name = "point";
  schema.elements.push_back(top);

  EXPECT_NE(schema.find_complex_type("Point"), nullptr);
  EXPECT_EQ(schema.find_complex_type("Nope"), nullptr);
  EXPECT_NE(schema.find_simple_type("Color"), nullptr);
  EXPECT_NE(schema.find_element("point"), nullptr);
}

Schema make_schema() {
  Schema schema;
  schema.target_namespace = "urn:test";
  schema.complex_types.push_back(make_flat_type());
  ElementDecl wrapper;
  wrapper.name = "echo";
  ComplexType wrapper_type;
  ElementDecl arg;
  arg.name = "arg0";
  arg.type = xml::QName{"urn:test", "Point"};
  wrapper_type.particles.emplace_back(std::move(arg));
  wrapper.inline_type = Box<ComplexType>{std::move(wrapper_type)};
  schema.elements.push_back(std::move(wrapper));
  SimpleTypeDecl color;
  color.name = "Color";
  color.base = qname(Builtin::kString);
  color.enumeration = {"RED", "GREEN"};
  schema.simple_types.push_back(std::move(color));
  return schema;
}

TEST(WriterReader, RoundTripsSchema) {
  const Schema original = make_schema();
  Result<Schema> read_back = parse(to_string(original));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, original);
}

TEST(WriterReader, RoundTripsOccurrenceBounds) {
  Schema schema;
  schema.target_namespace = "urn:occ";
  ComplexType type;
  type.name = "List";
  ElementDecl items;
  items.name = "items";
  items.type = qname(Builtin::kString);
  items.min_occurs = 0;
  items.max_occurs = kUnbounded;
  type.particles.emplace_back(std::move(items));
  schema.complex_types.push_back(std::move(type));

  Result<Schema> read_back = parse(to_string(schema));
  ASSERT_TRUE(read_back.ok());
  const ElementDecl* element = read_back->complex_types.front().elements().front();
  EXPECT_EQ(element->min_occurs, 0);
  EXPECT_EQ(element->max_occurs, kUnbounded);
}

TEST(WriterReader, RoundTripsRestrictionFacets) {
  Schema schema;
  schema.target_namespace = "urn:facets";
  SimpleTypeDecl sku;
  sku.name = "Sku";
  sku.base = qname(Builtin::kString);
  sku.min_length = 2;
  sku.max_length = 8;
  sku.total_digits = 3;
  sku.pattern = "[A-Z]{2}\\d{3}";
  sku.enumeration = {"AB123", "CD456"};
  schema.simple_types.push_back(sku);

  Result<Schema> read_back = parse(to_string(schema));
  ASSERT_TRUE(read_back.ok());
  ASSERT_EQ(read_back->simple_types.size(), 1u);
  EXPECT_EQ(read_back->simple_types.front(), sku);
  // Absent facets stay absent (no spurious -1 serialization).
  SimpleTypeDecl bare;
  bare.name = "Bare";
  bare.base = qname(Builtin::kInt);
  schema.simple_types = {bare};
  const std::string text = to_string(schema);
  EXPECT_EQ(text.find("minLength"), std::string::npos);
  EXPECT_EQ(text.find("totalDigits"), std::string::npos);
  EXPECT_EQ(text.find("pattern"), std::string::npos);
}

TEST(WriterReader, RoundTripsImportsAndForm) {
  Schema schema;
  schema.target_namespace = "urn:imp";
  schema.element_form_qualified = false;
  schema.imports.push_back({"urn:other", "other.xsd"});
  schema.imports.push_back({std::string(xml::ns::kXmlNs), ""});

  Result<Schema> read_back = parse(to_string(schema));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, schema);
}

TEST(WriterReader, RoundTripsWildcards) {
  Schema schema;
  schema.target_namespace = "urn:any";
  ComplexType type;
  type.name = "DataTable";
  AnyParticle any;
  any.min_occurs = 0;
  any.max_occurs = kUnbounded;
  type.particles.emplace_back(any);
  type.particles.emplace_back(AnyParticle{});
  schema.complex_types.push_back(std::move(type));

  Result<Schema> read_back = parse(to_string(schema));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back->complex_types.front().any_count(), 2u);
  EXPECT_EQ(*read_back, schema);
}

TEST(WriterReader, PreservesDualTypeDeclaration) {
  Schema schema;
  schema.target_namespace = "urn:dual";
  ComplexType type;
  type.name = "Bad";
  ElementDecl element;
  element.name = "pattern";
  element.type = qname(Builtin::kString);
  ComplexType inline_type;
  ElementDecl raw;
  raw.name = "raw";
  raw.type = qname(Builtin::kString);
  inline_type.particles.emplace_back(std::move(raw));
  element.inline_type = Box<ComplexType>{std::move(inline_type)};
  type.particles.emplace_back(std::move(element));
  schema.complex_types.push_back(std::move(type));

  Result<Schema> read_back = parse(to_string(schema));
  ASSERT_TRUE(read_back.ok());
  const ElementDecl* element_back = read_back->complex_types.front().elements().front();
  EXPECT_FALSE(element_back->type.empty());
  EXPECT_TRUE(element_back->inline_type.has_value());
}

TEST(WriterReader, SchemaPrefixConventionIsHonoured) {
  SchemaWriteOptions options;
  options.schema_prefix = "s";  // the WCF convention
  EXPECT_EQ(to_xml(make_schema(), options).name(), "s:schema");
  const std::string text = to_string(make_schema(), options);
  EXPECT_NE(text.find("s:complexType"), std::string::npos);
  // Still parses back identically.
  Result<Schema> read_back = parse(text);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, make_schema());
}

TEST(WriterReader, UnresolvedPrefixSurvivesAsEmptyNamespace) {
  // A ref with an undeclared prefix must parse into a QName with an empty
  // URI (and keep the prefix) instead of failing — tools meet these in the
  // wild.
  const char* text = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
        targetNamespace="urn:x">
      <xs:complexType name="T">
        <xs:sequence><xs:element name="a" type="ghost:Type"/></xs:sequence>
      </xs:complexType>
    </xs:schema>)";
  Result<Schema> schema = parse(text);
  ASSERT_TRUE(schema.ok());
  const ElementDecl* element = schema->complex_types.front().elements().front();
  EXPECT_EQ(element->type.namespace_uri(), "");
  EXPECT_EQ(element->type.local_name(), "Type");
  EXPECT_EQ(element->type.prefix(), "ghost");
}

TEST(Reader, RejectsNonSchemaElement) {
  Result<Schema> schema = parse("<xs:other/>");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.error().code, "xsd.not-a-schema");
}

TEST(Reader, RejectsMalformedOccurs) {
  const char* text = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a" maxOccurs="lots"/>
    </xs:schema>)";
  Result<Schema> schema = parse(text);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.error().code, "xsd.bad-occurs");
}

TEST(Reader, ReadsEnumerationFacets) {
  const char* text = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:simpleType name="SocketError">
        <xs:restriction base="xs:string">
          <xs:enumeration value="Success"/><xs:enumeration value="TimedOut"/>
        </xs:restriction>
      </xs:simpleType>
    </xs:schema>)";
  Result<Schema> schema = parse(text);
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema->simple_types.size(), 1u);
  EXPECT_EQ(schema->simple_types.front().enumeration,
            (std::vector<std::string>{"Success", "TimedOut"}));
  EXPECT_EQ(schema->simple_types.front().base, qname(Builtin::kString));
}

}  // namespace
}  // namespace wsx::xsd
