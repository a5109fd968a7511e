// Tests for XSD type derivation (complexContent/extension) and its use by
// the Throwable service schemas.
#include <gtest/gtest.h>

#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "wsdl/parser.hpp"
#include "xsd/reader.hpp"
#include "xsd/resolver.hpp"
#include "xsd/writer.hpp"

namespace wsx::xsd {
namespace {

Schema derived_schema() {
  Schema schema;
  schema.target_namespace = "urn:derive";
  ComplexType base;
  base.name = "Base";
  ElementDecl id;
  id.name = "id";
  id.type = qname(Builtin::kInt);
  base.particles.emplace_back(std::move(id));
  schema.complex_types.push_back(std::move(base));

  ComplexType derived;
  derived.name = "Derived";
  derived.base = xml::QName{"urn:derive", "Base"};
  ElementDecl extra;
  extra.name = "extra";
  extra.type = qname(Builtin::kString);
  derived.particles.emplace_back(std::move(extra));
  AttributeDecl marker;
  marker.name = "marker";
  marker.type = qname(Builtin::kBoolean);
  derived.attributes.push_back(std::move(marker));
  schema.complex_types.push_back(std::move(derived));
  return schema;
}

TEST(Derivation, WriterEmitsComplexContentExtension) {
  const std::string text = to_string(derived_schema());
  EXPECT_NE(text.find("xs:complexContent"), std::string::npos);
  EXPECT_NE(text.find("base=\"tns:Base\""), std::string::npos);
}

TEST(Derivation, RoundTripsThroughXml) {
  const Schema original = derived_schema();
  Result<Schema> read_back = parse(to_string(original));
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, original);
  const ComplexType* derived = read_back->find_complex_type("Derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_TRUE(derived->is_derived());
  EXPECT_EQ(derived->base.local_name(), "Base");
  EXPECT_EQ(derived->elements().size(), 1u);
  EXPECT_EQ(derived->attributes.size(), 1u);
}

TEST(Derivation, ResolverAcceptsLocalBase) {
  EXPECT_TRUE(resolve({derived_schema()}).clean());
}

TEST(Derivation, ResolverFlagsUnknownBase) {
  Schema schema = derived_schema();
  schema.complex_types.back().base = xml::QName{"urn:derive", "Ghost"};
  const ResolutionReport report = resolve({schema});
  ASSERT_EQ(report.unresolved.size(), 1u);
  EXPECT_EQ(report.unresolved.front().kind, RefKind::kTypeRef);
  EXPECT_NE(report.unresolved.front().context.find("extension base"), std::string::npos);
}

TEST(Derivation, BuiltinBaseResolves) {
  Schema schema = derived_schema();
  schema.complex_types.back().base = qname(Builtin::kAnyType);
  EXPECT_TRUE(resolve({schema}).clean());
}

TEST(Derivation, ThrowableServicesExtendThrowableBase) {
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = frameworks::make_server("Metro 2.3");
  for (const catalog::TypeInfo& type : catalog.types()) {
    if (!type.has(catalog::Trait::kThrowableDerived) ||
        type.has(catalog::Trait::kRawGenericApi)) {
      continue;
    }
    Result<frameworks::DeployedService> service =
        server->deploy(frameworks::ServiceSpec{&type});
    ASSERT_TRUE(service.ok());
    // The served text carries the derivation...
    Result<wsdl::Definitions> reparsed = wsdl::parse(service->wsdl_text);
    ASSERT_TRUE(reparsed.ok());
    const Schema& schema = reparsed->schemas.front();
    const ComplexType* base = schema.find_complex_type("Throwable");
    ASSERT_NE(base, nullptr);
    const ComplexType* bean = schema.find_complex_type(type.name);
    ASSERT_NE(bean, nullptr);
    EXPECT_TRUE(bean->is_derived());
    EXPECT_EQ(bean->base.local_name(), "Throwable");
    break;  // one representative suffices
  }
}

TEST(Derivation, PlainServicesDoNotDerive) {
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = frameworks::make_server("Metro 2.3");
  const catalog::TypeInfo* type = catalog.find(catalog::java_names::kXmlGregorianCalendar);
  Result<frameworks::DeployedService> service =
      server->deploy(frameworks::ServiceSpec{type});
  ASSERT_TRUE(service.ok());
  for (const ComplexType& complex_type : service->wsdl.schemas.front().complex_types) {
    EXPECT_FALSE(complex_type.is_derived()) << complex_type.name;
  }
}

}  // namespace
}  // namespace wsx::xsd
