// Tests for the wsdl:fault support, the ablation knobs, and the
// CSV/Markdown report formats.
#include <gtest/gtest.h>

#include "catalog/java_catalog.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "interop/report_formats.hpp"
#include "interop/study.hpp"
#include "soap/message.hpp"
#include "wsdl/parser.hpp"
#include "wsdl/writer.hpp"
#include "wsi/profile.hpp"

namespace wsx {
namespace {

/// A Throwable-derived Java type and its served Metro description.
const frameworks::DeployedService& throwable_service() {
  static const frameworks::DeployedService service = [] {
    const catalog::TypeCatalog catalog = catalog::make_java_catalog();
    const auto server = frameworks::make_server("Metro 2.3");
    for (const catalog::TypeInfo& type : catalog.types()) {
      if (type.has(catalog::Trait::kThrowableDerived) &&
          !type.has(catalog::Trait::kRawGenericApi)) {
        return std::move(server->deploy(frameworks::ServiceSpec{&type}).value());
      }
    }
    return frameworks::DeployedService{};
  }();
  return service;
}

TEST(WsdlFaults, ThrowableServicesDeclareAFault) {
  const frameworks::DeployedService& service = throwable_service();
  ASSERT_EQ(service.wsdl.port_types.size(), 1u);
  const wsdl::Operation& operation = service.wsdl.port_types.front().operations.front();
  ASSERT_EQ(operation.faults.size(), 1u);
  EXPECT_NE(service.wsdl.find_message(operation.faults.front().message), nullptr);
  // The binding covers the fault.
  EXPECT_EQ(service.wsdl.bindings.front().operations.front().fault_names.size(), 1u);
}

TEST(WsdlFaults, FaultsSurviveTheWireRoundTrip) {
  const frameworks::DeployedService& service = throwable_service();
  Result<wsdl::Definitions> reparsed = wsdl::parse(service.wsdl_text);
  ASSERT_TRUE(reparsed.ok());
  const wsdl::Operation& operation = reparsed->port_types.front().operations.front();
  ASSERT_EQ(operation.faults.size(), 1u);
  EXPECT_EQ(operation.faults.front(),
            service.wsdl.port_types.front().operations.front().faults.front());
  EXPECT_EQ(reparsed->bindings.front().operations.front().fault_names,
            service.wsdl.bindings.front().operations.front().fault_names);
}

TEST(WsdlFaults, FaultDeclaringDescriptionsStayWsiCompliant) {
  const wsi::ComplianceReport report = wsi::check(throwable_service().wsdl);
  EXPECT_TRUE(report.compliant()) << report.summary();
}

TEST(WsdlFaults, R2723FailsWhenBindingDropsTheFault) {
  wsdl::Definitions defs = throwable_service().wsdl;
  defs.bindings.front().operations.front().fault_names.clear();
  EXPECT_TRUE(wsi::check(defs).failed("R2723"));
}

TEST(WsdlFaults, R2097CatchesDanglingFaultMessage) {
  wsdl::Definitions defs = throwable_service().wsdl;
  defs.port_types.front().operations.front().faults.front().message = "ghost";
  EXPECT_TRUE(wsi::check(defs).failed("R2097"));
}

TEST(WsdlFaults, ClientsGenerateAFaultWrapperClass) {
  const auto client = frameworks::make_client("Apache CXF 2.7.6");
  frameworks::GenerationResult result = client->generate(throwable_service().wsdl_text);
  ASSERT_TRUE(result.produced_artifacts());
  bool found = false;
  for (const code::CompilationUnit& unit : result.artifacts->units) {
    for (const code::Class& cls : unit.classes) {
      if (cls.name.find("Fault") != std::string::npos) found = true;
    }
  }
  EXPECT_TRUE(found);
  // The wrapper compiles cleanly for the strict tools.
  EXPECT_TRUE(compilers::make_compiler(code::Language::kJava)
                  ->compile(*result.artifacts)
                  .empty());
}

TEST(WsdlFaults, ServerRaisesDeclaredFaultOnDemand) {
  const frameworks::DeployedService& service = throwable_service();
  const auto server = frameworks::make_server("Metro 2.3");
  Result<soap::Envelope> request =
      soap::build_request(service.wsdl, "echo", {{"arg0", "!throw"}});
  ASSERT_TRUE(request.ok());
  const soap::Envelope response = server->handle_request(service, *request);
  ASSERT_TRUE(response.is_fault());
  EXPECT_EQ(response.fault().fault_code, "soap:Server");
  EXPECT_NE(response.fault().detail.find("Fault"), std::string::npos);
}

TEST(WsdlFaults, WcfServicesDeclareNoFaults) {
  const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog();
  const auto server = frameworks::make_server("WCF .NET 4.0.30319.17929");
  const catalog::TypeInfo* type = dotnet.find(catalog::dotnet_names::kDataView);
  Result<frameworks::DeployedService> service =
      server->deploy(frameworks::ServiceSpec{type});
  ASSERT_TRUE(service.ok());
  EXPECT_TRUE(service->wsdl.port_types.front().operations.front().faults.empty());
}

// --- Ablation knobs. ---

interop::StudyConfig tiny_config() {
  interop::StudyConfig config;
  config.java_spec.plain_beans = 10;
  config.java_spec.throwable_clean = 2;
  config.java_spec.throwable_raw = 1;
  config.java_spec.raw_generic_beans = 1;
  config.java_spec.anytype_array_beans = 1;
  config.java_spec.no_default_ctor = 2;
  config.java_spec.abstract_classes = 1;
  config.java_spec.interfaces = 1;
  config.java_spec.generic_types = 1;
  config.dotnet_spec.plain_types = 10;
  config.dotnet_spec.dataset_plain = 1;
  config.dotnet_spec.dataset_duplicated = 1;
  config.dotnet_spec.dataset_nested = 1;
  config.dotnet_spec.dataset_array = 1;
  config.dotnet_spec.encoded_binding = 1;
  config.dotnet_spec.missing_soap_action = 1;
  config.dotnet_spec.deep_nesting_clean = 1;
  config.dotnet_spec.deep_nesting_pathological = 1;
  config.dotnet_spec.generator_crash = 1;
  config.dotnet_spec.non_serializable = 2;
  config.dotnet_spec.no_default_ctor = 2;
  config.dotnet_spec.generic_types = 1;
  config.dotnet_spec.abstract_classes = 1;
  config.dotnet_spec.interfaces = 1;
  return config;
}

TEST(Ablation, WsiGateWithdrawsFlaggedDescriptions) {
  interop::StudyConfig config = tiny_config();
  const interop::StudyResult baseline = interop::run_study(config);
  config.wsi_deploy_gate = true;
  const interop::StudyResult gated = interop::run_study(config);

  std::size_t rejections = 0;
  for (const interop::ServerResult& server : gated.servers) {
    rejections += server.gate_rejections;
    // Nothing flagged remains visible to clients.
    EXPECT_EQ(server.services_deployed + server.gate_rejections,
              baseline.servers[&server - gated.servers.data()].services_deployed);
  }
  EXPECT_EQ(rejections, baseline.total_description_warnings());
  EXPECT_LT(gated.total_interop_errors(), baseline.total_interop_errors());
}

TEST(Ablation, StrictJBossRefusesZeroOperationDeployments) {
  const catalog::TypeCatalog java = catalog::make_java_catalog(tiny_config().java_spec);
  const auto lenient = frameworks::make_server("JBossWS CXF 4.2.3");
  const auto strict = frameworks::make_server("JBossWS CXF 4.2.3", /*remedied=*/true);
  const catalog::TypeInfo* future = java.find(catalog::java_names::kFuture);
  ASSERT_NE(future, nullptr);
  EXPECT_TRUE(lenient->deploy(frameworks::ServiceSpec{future}).ok());
  Result<frameworks::DeployedService> refused =
      strict->deploy(frameworks::ServiceSpec{future});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "deploy.no-operations");
}

// --- Machine-readable report formats. ---

class Formats : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new interop::StudyResult(interop::run_study(tiny_config()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static interop::StudyResult* result_;
};

interop::StudyResult* Formats::result_ = nullptr;

TEST_F(Formats, Fig4CsvHasHeaderAndRows) {
  const std::string csv = interop::fig4_csv(*result_);
  EXPECT_EQ(csv.find("server,metric,paper,measured"), 0u);
  // 3 servers × 6 metrics + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 19);
}

TEST_F(Formats, Table3CsvHasOneRowPerCell) {
  const std::string csv = interop::table3_csv(*result_);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 33);
  EXPECT_NE(csv.find("Apache Axis1 1.4"), std::string::npos);
}

TEST_F(Formats, CsvEscapesCommaFields) {
  const std::string csv = interop::table3_csv(*result_);
  // Client names containing commas/quotes would be quoted; ours contain
  // neither, but parenthesized names must pass through unquoted.
  EXPECT_NE(csv.find(".NET Framework 4.0.30319.17929 (C#)"), std::string::npos);
}

TEST_F(Formats, MarkdownTablesRender) {
  const std::string fig4 = interop::fig4_markdown(*result_);
  EXPECT_EQ(fig4.find("| server | metric |"), 0u);
  EXPECT_NE(fig4.find("| Metro 2.3 |"), std::string::npos);
  const std::string table3 = interop::table3_markdown(*result_);
  EXPECT_NE(table3.find("| n/a | n/a |"), std::string::npos);  // dynamic clients
}

}  // namespace
}  // namespace wsx
