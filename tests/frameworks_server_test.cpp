// Unit tests for the server framework models (the server table in
// src/frameworks/roster.cpp, server.*, wsdl_builder.*).
#include <gtest/gtest.h>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/features.hpp"
#include "frameworks/registry.hpp"
#include "soap/message.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"

namespace wsx::frameworks {
namespace {

using catalog::Trait;

const catalog::TypeCatalog& java() {
  static const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  return catalog;
}

const catalog::TypeCatalog& dotnet() {
  static const catalog::TypeCatalog catalog = catalog::make_dotnet_catalog();
  return catalog;
}

std::unique_ptr<ServerFramework> metro() { return make_server("Metro 2.3"); }
std::unique_ptr<ServerFramework> jbossws() { return make_server("JBossWS CXF 4.2.3"); }
std::unique_ptr<ServerFramework> wcf() { return make_server("WCF .NET 4.0.30319.17929"); }

DeployedService deploy(const ServerFramework& server, std::string_view type_name,
                       const catalog::TypeCatalog& types) {
  const catalog::TypeInfo* type = types.find(type_name);
  EXPECT_NE(type, nullptr) << type_name;
  Result<DeployedService> service = server.deploy(ServiceSpec{type});
  EXPECT_TRUE(service.ok()) << type_name;
  return std::move(service.value());
}

TEST(Registry, ProvidesThreeServersAndElevenClients) {
  EXPECT_EQ(make_servers().size(), 3u);
  EXPECT_EQ(make_clients().size(), 11u);
  EXPECT_EQ(make_server("nope"), nullptr);
  EXPECT_EQ(make_client("nope"), nullptr);
}

TEST(Deployability, MetroDeploys2489JavaServices) {
  std::size_t deployable = 0;
  const auto server = metro();
  for (const catalog::TypeInfo& type : java().types()) {
    if (server->can_deploy(type)) ++deployable;
  }
  EXPECT_EQ(deployable, 2489u);
}

TEST(Deployability, JBossWsDeploys2248JavaServices) {
  std::size_t deployable = 0;
  const auto server = jbossws();
  for (const catalog::TypeInfo& type : java().types()) {
    if (server->can_deploy(type)) ++deployable;
  }
  EXPECT_EQ(deployable, 2248u);
}

TEST(Deployability, WcfDeploys2502DotNetServices) {
  std::size_t deployable = 0;
  const auto server = wcf();
  for (const catalog::TypeInfo& type : dotnet().types()) {
    if (server->can_deploy(type)) ++deployable;
  }
  EXPECT_EQ(deployable, 2502u);
}

TEST(Deployability, MetroRefusesAsyncInterfacesJBossAccepts) {
  const catalog::TypeInfo* future = java().find(catalog::java_names::kFuture);
  ASSERT_NE(future, nullptr);
  EXPECT_FALSE(metro()->can_deploy(*future));
  EXPECT_TRUE(jbossws()->can_deploy(*future));
  Result<DeployedService> refused = metro()->deploy(ServiceSpec{future});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "deploy.unbindable");
}

TEST(Deployability, JBossRejectsRawGenericTypes) {
  const auto server = jbossws();
  for (const catalog::TypeInfo* type : java().with_trait(Trait::kRawGenericApi)) {
    EXPECT_FALSE(server->can_deploy(*type)) << type->qualified_name();
  }
}

TEST(Description, PlainServicePassesWsiOnAllServers) {
  const auto check_one = [](const ServerFramework& server, const catalog::TypeCatalog& types) {
    for (const catalog::TypeInfo& type : types.types()) {
      const bool special = type.traits != (static_cast<std::uint64_t>(Trait::kDefaultCtor) |
                                           static_cast<std::uint64_t>(Trait::kSerializable));
      if (special || !server.can_deploy(type)) continue;
      Result<DeployedService> service = server.deploy(ServiceSpec{&type});
      ASSERT_TRUE(service.ok());
      EXPECT_TRUE(wsi::check(service->wsdl).compliant()) << type.qualified_name();
      return;  // one plain representative per server
    }
    FAIL() << "no plain deployable type found for " << server.name();
  };
  check_one(*metro(), java());
  check_one(*jbossws(), java());
  check_one(*wcf(), dotnet());
}

TEST(Description, ServedTextParsesBackIdentically) {
  const DeployedService service =
      deploy(*metro(), catalog::java_names::kXmlGregorianCalendar, java());
  Result<wsdl::Definitions> reparsed = wsdl::parse(service.wsdl_text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->target_namespace, service.wsdl.target_namespace);
  EXPECT_EQ(reparsed->operation_count(), 1u);
}

TEST(Description, MetroW3CEndpointReferenceFailsWsiViaTypeRef) {
  const DeployedService service =
      deploy(*metro(), catalog::java_names::kW3CEndpointReference, java());
  EXPECT_TRUE(wsi::check(service.wsdl).failed("R2102"));
  const WsdlFeatures features = analyze(wsdl::parse(service.wsdl_text).value());
  EXPECT_TRUE(features.unresolved_foreign_type_ref);
  EXPECT_FALSE(features.unresolved_foreign_attr_ref);
}

TEST(Description, JBossW3CEndpointReferenceFailsWsiViaAttrRef) {
  const DeployedService service =
      deploy(*jbossws(), catalog::java_names::kW3CEndpointReference, java());
  EXPECT_TRUE(wsi::check(service.wsdl).failed("R2102"));
  const WsdlFeatures features = analyze(wsdl::parse(service.wsdl_text).value());
  EXPECT_TRUE(features.unresolved_foreign_attr_ref);
  EXPECT_FALSE(features.unresolved_foreign_type_ref);
}

TEST(Description, MetroSimpleDateFormatDanglesAttributeGroup) {
  const DeployedService service =
      deploy(*metro(), catalog::java_names::kSimpleDateFormat, java());
  EXPECT_TRUE(wsi::check(service.wsdl).failed("R2102"));
  const WsdlFeatures features = analyze(wsdl::parse(service.wsdl_text).value());
  EXPECT_TRUE(features.unresolved_attr_group);
}

TEST(Description, JBossSimpleDateFormatHasDualTypeDeclaration) {
  const DeployedService service =
      deploy(*jbossws(), catalog::java_names::kSimpleDateFormat, java());
  EXPECT_TRUE(wsi::check(service.wsdl).failed("R2800"));
  const WsdlFeatures features = analyze(wsdl::parse(service.wsdl_text).value());
  EXPECT_TRUE(features.dual_type_declaration);
}

TEST(Description, JBossPublishesZeroOperationWsdlForAsyncApi) {
  const DeployedService service = deploy(*jbossws(), catalog::java_names::kFuture, java());
  EXPECT_EQ(service.wsdl.operation_count(), 0u);
  const wsi::ComplianceReport report = wsi::check(service.wsdl);
  EXPECT_TRUE(report.compliant());  // passes WS-I, yet unusable (§IV.B.1)
  EXPECT_EQ(report.warnings().size(), 1u);
}

TEST(Description, WcfDataSetIdiomUsesSPrefix) {
  const catalog::TypeInfo* dataset = nullptr;
  for (const catalog::TypeInfo& type : dotnet().types()) {
    if (type.has(Trait::kDataSetSchema) && !type.has(Trait::kDataSetNested) &&
        !type.has(Trait::kDataSetDuplicated) && !type.has(Trait::kDataSetArray)) {
      dataset = &type;
      break;
    }
  }
  ASSERT_NE(dataset, nullptr);
  Result<DeployedService> service = wcf()->deploy(ServiceSpec{dataset});
  ASSERT_TRUE(service.ok());
  EXPECT_NE(service->wsdl_text.find("ref=\"s:schema\""), std::string::npos);
  EXPECT_NE(service->wsdl_text.find("ref=\"s:lang\""), std::string::npos);
  EXPECT_TRUE(wsi::check(service->wsdl).failed("R2102"));
  const WsdlFeatures features = analyze(wsdl::parse(service->wsdl_text).value());
  EXPECT_TRUE(features.schema_element_ref);
  EXPECT_TRUE(features.xsd_attr_ref);
  EXPECT_FALSE(features.schema_element_ref_nested);
  EXPECT_FALSE(features.schema_element_ref_duplicated);
}

TEST(Description, WcfDataSetSubShapesSurfaceAsFeatures) {
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kDataSetDuplicated)) {
    Result<DeployedService> service = wcf()->deploy(ServiceSpec{type});
    ASSERT_TRUE(service.ok());
    EXPECT_TRUE(analyze(wsdl::parse(service->wsdl_text).value()).schema_element_ref_duplicated);
    break;
  }
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kDataSetNested)) {
    Result<DeployedService> service = wcf()->deploy(ServiceSpec{type});
    ASSERT_TRUE(service.ok());
    EXPECT_TRUE(analyze(wsdl::parse(service->wsdl_text).value()).schema_element_ref_nested);
    break;
  }
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kDataSetArray)) {
    Result<DeployedService> service = wcf()->deploy(ServiceSpec{type});
    ASSERT_TRUE(service.ok());
    EXPECT_TRUE(analyze(wsdl::parse(service->wsdl_text).value()).schema_element_ref_array);
    break;
  }
}

TEST(Description, WcfEncodedAndMissingActionFailWsi) {
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kSoapEncodedBinding)) {
    Result<DeployedService> service = wcf()->deploy(ServiceSpec{type});
    ASSERT_TRUE(service.ok());
    EXPECT_TRUE(wsi::check(service->wsdl).failed("R2706"));
  }
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kMissingSoapAction)) {
    Result<DeployedService> service = wcf()->deploy(ServiceSpec{type});
    ASSERT_TRUE(service.ok());
    EXPECT_TRUE(wsi::check(service->wsdl).failed("R2744"));
  }
}

TEST(Description, WcfWildcardTypesAreCompliant) {
  const DeployedService service = deploy(*wcf(), catalog::dotnet_names::kDataTable, dotnet());
  EXPECT_TRUE(wsi::check(service.wsdl).compliant());
  const WsdlFeatures features = analyze(wsdl::parse(service.wsdl_text).value());
  EXPECT_TRUE(features.wildcard_only_content);
  EXPECT_EQ(features.max_wildcards_per_type, 2u);
}

TEST(Description, WcfEnumBecomesSimpleType) {
  const DeployedService service =
      deploy(*wcf(), catalog::dotnet_names::kSocketError, dotnet());
  ASSERT_EQ(service.wsdl.schemas.front().simple_types.size(), 1u);
  EXPECT_FALSE(service.wsdl.schemas.front().simple_types.front().enumeration.empty());
  EXPECT_TRUE(wsi::check(service.wsdl).compliant());
}

TEST(Description, DeepNestingDepthsDifferentiatePathological) {
  const catalog::TypeInfo* clean = nullptr;
  const catalog::TypeInfo* pathological = nullptr;
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kDeepNesting)) {
    if (type->has(Trait::kCompilerPathological)) {
      pathological = type;
    } else {
      clean = type;
    }
    if (clean != nullptr && pathological != nullptr) break;
  }
  ASSERT_NE(clean, nullptr);
  ASSERT_NE(pathological, nullptr);
  const auto server = wcf();
  const WsdlFeatures clean_features =
      analyze(wsdl::parse(server->deploy(ServiceSpec{clean})->wsdl_text).value());
  const WsdlFeatures pathological_features =
      analyze(wsdl::parse(server->deploy(ServiceSpec{pathological})->wsdl_text).value());
  EXPECT_EQ(clean_features.max_inline_depth, 3u);
  EXPECT_EQ(pathological_features.max_inline_depth, 5u);
}

TEST(Description, GeneratorCrashTypesAreSelfRecursive) {
  for (const catalog::TypeInfo* type : dotnet().with_trait(Trait::kGeneratorCrash)) {
    Result<DeployedService> service = wcf()->deploy(ServiceSpec{type});
    ASSERT_TRUE(service.ok());
    EXPECT_TRUE(analyze(wsdl::parse(service->wsdl_text).value()).self_recursive_type);
  }
}

TEST(Description, JavaServersAttachJaxwsExtension) {
  const DeployedService metro_service =
      deploy(*metro(), catalog::java_names::kXmlGregorianCalendar, java());
  EXPECT_TRUE(analyze(wsdl::parse(metro_service.wsdl_text).value()).unknown_extension_elements);
  const catalog::TypeInfo* plain_dotnet = nullptr;
  for (const catalog::TypeInfo& type : dotnet().types()) {
    if (wcf()->can_deploy(type)) {
      plain_dotnet = &type;
      break;
    }
  }
  Result<DeployedService> wcf_service = wcf()->deploy(ServiceSpec{plain_dotnet});
  ASSERT_TRUE(wcf_service.ok());
  EXPECT_FALSE(
      analyze(wsdl::parse(wcf_service->wsdl_text).value()).unknown_extension_elements);
}

TEST(Execution, EchoRoundTripReturnsArgument) {
  const DeployedService service =
      deploy(*metro(), catalog::java_names::kXmlGregorianCalendar, java());
  Result<soap::Envelope> request =
      soap::build_request(service.wsdl, "echo", {{"arg0", "payload-123"}});
  ASSERT_TRUE(request.ok());
  const soap::Envelope response = metro()->handle_request(service, *request);
  EXPECT_FALSE(response.is_fault());
}

TEST(Execution, UnknownOperationYieldsClientFault) {
  const DeployedService service =
      deploy(*metro(), catalog::java_names::kXmlGregorianCalendar, java());
  soap::Envelope bogus{xml::Element{"m:unknownOp"}};
  const soap::Envelope response = metro()->handle_request(service, bogus);
  ASSERT_TRUE(response.is_fault());
  EXPECT_EQ(response.fault().fault_code, "soap:Client");
}

TEST(Execution, ZeroOperationServiceFaultsOnInvocation) {
  const DeployedService service = deploy(*jbossws(), catalog::java_names::kFuture, java());
  soap::Envelope request{xml::Element{"m:echo"}};
  const soap::Envelope response = jbossws()->handle_request(service, request);
  EXPECT_TRUE(response.is_fault());
}

TEST(ServiceSpec, NamesDeriveFromType) {
  const catalog::TypeInfo* type = java().find(catalog::java_names::kSimpleDateFormat);
  EXPECT_EQ(ServiceSpec{type}.service_name(), "EchoSimpleDateFormat");
  EXPECT_EQ(ServiceSpec::operation_name(), "echo");
}

TEST(ServiceSpec, MakeServicesCoversCatalog) {
  const std::vector<ServiceSpec> services = make_services(java());
  EXPECT_EQ(services.size(), java().size());
  EXPECT_EQ(services.front().type, &java().types().front());
}

}  // namespace
}  // namespace wsx::frameworks
