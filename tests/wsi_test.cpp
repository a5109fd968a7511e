// Unit tests for the WS-I Basic Profile checker (src/wsi/).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "wsi/profile.hpp"

namespace wsx::wsi {
namespace {

using testing::compliant_echo_definitions;

TEST(Wsi, CompliantDescriptionPasses) {
  const ComplianceReport report = check(compliant_echo_definitions());
  EXPECT_TRUE(report.compliant());
  EXPECT_TRUE(report.failures().empty());
  EXPECT_TRUE(report.warnings().empty());
  EXPECT_EQ(report.summary(), "PASS");
}

TEST(Wsi, R2001FailsWithoutTargetNamespace) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.target_namespace.clear();
  const ComplianceReport report = check(defs);
  EXPECT_TRUE(report.failed("R2001"));
}

TEST(Wsi, R2007FailsOnLocationlessImport) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.imports.push_back({"urn:other", ""});
  EXPECT_TRUE(check(defs).failed("R2007"));
  defs.imports.back().location = "http://host/other.wsdl";
  EXPECT_FALSE(check(defs).failed("R2007"));
}

TEST(Wsi, R2102FailsOnUnresolvedTypeReference) {
  wsdl::Definitions defs = compliant_echo_definitions();
  xsd::ElementDecl bad;
  bad.name = "address";
  bad.type = xml::QName{std::string(xml::ns::kWsAddressing), "EndpointReferenceType"};
  defs.schemas.front().complex_types.front().particles.emplace_back(std::move(bad));
  const ComplianceReport report = check(defs);
  EXPECT_TRUE(report.failed("R2102"));
  EXPECT_FALSE(report.compliant());
}

TEST(Wsi, R2102FailsOnSchemaElementRef) {
  wsdl::Definitions defs = compliant_echo_definitions();
  xsd::ElementDecl ref;
  ref.ref = xml::QName{std::string(xml::ns::kXsd), "schema", "s"};
  defs.schemas.front().complex_types.front().particles.emplace_back(std::move(ref));
  EXPECT_TRUE(check(defs).failed("R2102"));
}

TEST(Wsi, R2102DetailNamesTheReference) {
  wsdl::Definitions defs = compliant_echo_definitions();
  xsd::AttributeDecl lang;
  lang.ref = xml::QName{std::string(xml::ns::kXsd), "lang", "s"};
  defs.schemas.front().complex_types.front().attributes.push_back(std::move(lang));
  const ComplianceReport report = check(defs);
  ASSERT_TRUE(report.failed("R2102"));
  bool found = false;
  for (const AssertionResult* failure : report.failures()) {
    if (failure->detail.find("s:lang") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Wsi, R2800FailsOnDualTypeDeclaration) {
  wsdl::Definitions defs = compliant_echo_definitions();
  xsd::ElementDecl& wrapper = defs.schemas.front().elements.front();
  wrapper.type = xsd::qname(xsd::Builtin::kString);  // type= AND inline type
  EXPECT_TRUE(check(defs).failed("R2800"));
}

TEST(Wsi, R2304FailsOnDuplicateOperations) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.port_types.front().operations.push_back({"echo", "echo", "echoResponse", {}});
  defs.bindings.front().operations.push_back(defs.bindings.front().operations.front());
  EXPECT_TRUE(check(defs).failed("R2304"));
}

TEST(Wsi, R2204FailsOnTypePartInDocumentBinding) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.messages.front().parts.front().element = {};
  defs.messages.front().parts.front().type = xml::QName{"urn:echo", "Payload"};
  EXPECT_TRUE(check(defs).failed("R2204"));
}

TEST(Wsi, R2204FailsOnMultipartDocumentMessage) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.messages.front().parts.push_back(
      {"extra", xml::QName{"urn:echo", "echo"}, {}});
  EXPECT_TRUE(check(defs).failed("R2204"));
}

TEST(Wsi, R2203FailsOnElementPartInRpcBinding) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().style = wsdl::SoapStyle::kRpc;
  EXPECT_TRUE(check(defs).failed("R2203"));
}

TEST(Wsi, R2706FailsOnEncodedUse) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().operations.front().input_use = wsdl::SoapUse::kEncoded;
  EXPECT_TRUE(check(defs).failed("R2706"));
}

TEST(Wsi, R2744FailsOnMissingSoapAction) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().operations.front().has_soap_action = false;
  EXPECT_TRUE(check(defs).failed("R2744"));
}

TEST(Wsi, EmptySoapActionValueIsCompliant) {
  // The attribute must be present; its value may be "".
  const ComplianceReport report = check(compliant_echo_definitions());
  EXPECT_FALSE(report.failed("R2744"));
}

TEST(Wsi, R2701FailsOnDanglingPortTypeReference) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().port_type = xml::QName{"urn:echo", "Ghost"};
  EXPECT_TRUE(check(defs).failed("R2701"));
}

TEST(Wsi, R2718FailsOnUnboundOperation) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().operations.clear();
  EXPECT_TRUE(check(defs).failed("R2718"));
}

TEST(Wsi, R2718FailsOnUnknownBoundOperation) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().operations.front().name = "ghost";
  EXPECT_TRUE(check(defs).failed("R2718"));
}

TEST(Wsi, R2097FailsOnUnknownMessage) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.port_types.front().operations.front().input_message = "ghost";
  EXPECT_TRUE(check(defs).failed("R2097"));
}

TEST(Wsi, R2401FailsOnRelativeAddress) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.services.front().ports.front().location = "/echo";
  EXPECT_TRUE(check(defs).failed("R2401"));
}

TEST(Wsi, R2401FailsOnUnknownBindingReference) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.services.front().ports.front().binding = xml::QName{"urn:echo", "Ghost"};
  EXPECT_TRUE(check(defs).failed("R2401"));
}

TEST(Wsi, ZeroOperationsIsAWarningByDefault) {
  // JBossWS's unusable-but-compliant descriptions (§IV.B.1).
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.port_types.front().operations.clear();
  defs.bindings.front().operations.clear();
  defs.messages.clear();
  const ComplianceReport report = check(defs);
  EXPECT_TRUE(report.compliant());
  ASSERT_EQ(report.warnings().size(), 1u);
  EXPECT_EQ(report.warnings().front()->id, "WSX-OP1");
}

TEST(Wsi, ZeroOperationsFailsUnderStrictProfile) {
  // The paper's minOccurs >= 1 advocacy (§IV.A).
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.port_types.front().operations.clear();
  defs.bindings.front().operations.clear();
  defs.messages.clear();
  Profile profile;
  profile.require_operations = true;
  EXPECT_FALSE(check(defs, profile).compliant());
}

TEST(Wsi, SummaryListsFailedAssertions) {
  wsdl::Definitions defs = compliant_echo_definitions();
  defs.bindings.front().operations.front().has_soap_action = false;
  defs.bindings.front().operations.front().input_use = wsdl::SoapUse::kEncoded;
  const std::string summary = check(defs).summary();
  EXPECT_NE(summary.find("R2744"), std::string::npos);
  EXPECT_NE(summary.find("R2706"), std::string::npos);
}

TEST(Wsi, WildcardOnlyContentIsCompliant) {
  // The DataTable family passes WS-I — that is the point of §IV.B.2.
  wsdl::Definitions defs = compliant_echo_definitions();
  xsd::ComplexType table;
  table.name = "DataTable";
  table.particles.emplace_back(xsd::AnyParticle{});
  table.particles.emplace_back(xsd::AnyParticle{});
  defs.schemas.front().complex_types.push_back(std::move(table));
  EXPECT_TRUE(check(defs).compliant());
}

TEST(Wsi, OutcomeNames) {
  EXPECT_STREQ(to_string(Outcome::kPass), "pass");
  EXPECT_STREQ(to_string(Outcome::kWarning), "warning");
  EXPECT_STREQ(to_string(Outcome::kFail), "fail");
  EXPECT_STREQ(to_string(Outcome::kNotApplicable), "n/a");
}

// Every deployed service of the 2% corpus (the populations `--scale 2`
// deploys). The golden opens with a legend, the assertion ids and titles
// in report order; every report must carry exactly those, and a result
// that does not is rendered on a line of its own. Per service it then
// lists each result that is not a plain pass with its outcome and detail,
// and the summary under the default profile and under require_operations.
TEST(Wsi, CorpusReportsMatchTheGolden) {
  const catalog::TypeCatalog java =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, 2));
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(catalog::scaled(catalog::DotNetCatalogSpec{}, 2));
  std::vector<std::string> legend;
  std::string rendered;
  for (const auto& server : frameworks::make_servers()) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    for (const frameworks::ServiceSpec& spec : frameworks::make_services(types)) {
      const Result<frameworks::DeployedService> service = server->deploy(spec);
      if (!service.ok()) continue;
      const ComplianceReport report = check(service->wsdl);
      std::string services;
      services += "== " + server->name() + "/" + spec.service_name() + "\n";
      for (std::size_t i = 0; i < report.results().size(); ++i) {
        const AssertionResult& result = report.results()[i];
        std::string entry = result.id;
        entry += " | ";
        entry += result.title;
        if (legend.size() == i) {
          legend.push_back(entry);
          rendered += entry + "\n";
        } else if (legend[i] != entry) {
          services += "result " + std::to_string(i) + ": " + entry + "\n";
        }
        if (result.outcome == Outcome::kPass && result.detail.empty()) continue;
        services += result.id + " " + to_string(result.outcome) + " | " + result.detail + "\n";
      }
      if (report.results().size() != legend.size()) {
        services += "results: " + std::to_string(report.results().size()) + "\n";
      }
      services += "summary: " + report.summary() + "\n";
      services += "strict: " + check(service->wsdl, Profile{true}).summary() + "\n";
      rendered += services;
    }
  }

  const std::string name = "wsi_corpus_scale2.golden";
  std::ifstream in(std::string(WSX_TEST_DATA_DIR) + "/" + name);
  std::ostringstream want;
  want << in.rdbuf();
  if (rendered == want.str()) return;
  const std::string path = ::testing::TempDir() + name + ".actual";
  std::ofstream(path) << rendered;
  ADD_FAILURE() << "reports differ from tests/data/" << name << "; rendered: " << path;
}

}  // namespace
}  // namespace wsx::wsi
