// Tests for the manual data-type binding customization (paper §IV.B.2:
// "all the errors in this group can be solved by using manual
// customization of the data type bindings").
#include <gtest/gtest.h>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "interop/study.hpp"

namespace wsx::frameworks {
namespace {

std::string dataset_wsdl() {
  static const std::string text = [] {
    const catalog::TypeCatalog catalog = catalog::make_dotnet_catalog();
    const auto server = make_server("WCF .NET 4.0.30319.17929");
    for (const catalog::TypeInfo& type : catalog.types()) {
      if (type.has(catalog::Trait::kDataSetSchema) &&
          !type.has(catalog::Trait::kDataSetNested) &&
          !type.has(catalog::Trait::kDataSetDuplicated) &&
          !type.has(catalog::Trait::kDataSetArray)) {
        return server->deploy(ServiceSpec{&type})->wsdl_text;
      }
    }
    return std::string{};
  }();
  return text;
}

std::string wildcard_wsdl() {
  static const std::string text = [] {
    const catalog::TypeCatalog catalog = catalog::make_dotnet_catalog();
    const auto server = make_server("WCF .NET 4.0.30319.17929");
    const catalog::TypeInfo* type = catalog.find(catalog::dotnet_names::kDataTable);
    return server->deploy(ServiceSpec{type})->wsdl_text;
  }();
  return text;
}

TEST(BindingCustomization, CuresMetroOnTheDataSetIdiom) {
  const auto plain = make_client("Oracle Metro 2.3");
  const auto customized = make_client("Oracle Metro 2.3", /*remedied=*/true);
  EXPECT_TRUE(plain->generate(dataset_wsdl()).diagnostics.has_errors());
  GenerationResult result = customized->generate(dataset_wsdl());
  EXPECT_FALSE(result.diagnostics.has_errors());
  EXPECT_TRUE(result.diagnostics.has_warnings());  // developer was told
  ASSERT_TRUE(result.produced_artifacts());
  // And the cured artifacts compile.
  EXPECT_FALSE(compilers::make_compiler(code::Language::kJava)
                   ->compile(*result.artifacts)
                   .has_errors());
}

TEST(BindingCustomization, CuresCxfAndJBossOnWildcardContent) {
  const auto plain_cxf = make_client("Apache CXF 2.7.6");
  const auto customized_cxf = make_client("Apache CXF 2.7.6", /*remedied=*/true);
  EXPECT_TRUE(plain_cxf->generate(wildcard_wsdl()).diagnostics.has_errors());
  EXPECT_FALSE(customized_cxf->generate(wildcard_wsdl()).diagnostics.has_errors());

  const auto plain_jboss = make_client("JBossWS CXF 4.2.3");
  const auto customized_jboss = make_client("JBossWS CXF 4.2.3", /*remedied=*/true);
  EXPECT_TRUE(plain_jboss->generate(wildcard_wsdl()).diagnostics.has_errors());
  EXPECT_FALSE(customized_jboss->generate(wildcard_wsdl()).diagnostics.has_errors());
}

TEST(BindingCustomization, CuresW3CEndpointReference) {
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = make_server("Metro 2.3");
  const catalog::TypeInfo* type = catalog.find(catalog::java_names::kW3CEndpointReference);
  Result<DeployedService> service = server->deploy(ServiceSpec{type});
  ASSERT_TRUE(service.ok());
  const auto customized = make_client("Oracle Metro 2.3", /*remedied=*/true);
  EXPECT_FALSE(customized->generate(service->wsdl_text).diagnostics.has_errors());
}

TEST(BindingCustomization, DoesNotCureNonBindingFailures) {
  // Zero-operation WSDLs are unusable regardless of bindings (§IV.B.2's
  // cure applies to data-type issues only).
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = make_server("JBossWS CXF 4.2.3");
  const catalog::TypeInfo* future = catalog.find(catalog::java_names::kFuture);
  Result<DeployedService> service = server->deploy(ServiceSpec{future});
  ASSERT_TRUE(service.ok());
  const auto customized = make_client("Oracle Metro 2.3", /*remedied=*/true);
  EXPECT_TRUE(customized->generate(service->wsdl_text).diagnostics.has_errors());
}

TEST(BindingCustomization, CuredCampaignDropsJavaStackErrorsOnWcf) {
  // Rerun the WCF column with customized Java-stack clients: the 79+79+79
  // binding errors disappear, exactly as §IV.B.2 predicts — at the price
  // of "the client developer has to know precisely which binding to
  // define".
  const catalog::TypeCatalog catalog = catalog::make_dotnet_catalog();
  const std::vector<ServiceSpec> services = make_services(catalog);
  const auto server = make_server("WCF .NET 4.0.30319.17929");
  const interop::StudyConfig config;

  std::vector<std::unique_ptr<ClientFramework>> customized;
  for (const char* name : {"Oracle Metro 2.3", "Apache CXF 2.7.6", "JBossWS CXF 4.2.3"}) {
    customized.push_back(make_client(name, /*remedied=*/true));
  }
  const interop::ServerResult cured =
      interop::run_server_campaign(*server, services, customized, config);
  for (const interop::CellResult& cell : cured.cells) {
    EXPECT_EQ(cell.generation.errors, 0u) << cell.client;
    EXPECT_EQ(cell.generation.warnings, 79u) << cell.client;  // flagged, not fatal
    EXPECT_EQ(cell.compilation.errors, 0u) << cell.client;
  }
}

}  // namespace
}  // namespace wsx::frameworks
