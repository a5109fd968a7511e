// Unit tests for the client framework models (the tool table in
// src/frameworks/roster.cpp): each tool's tolerance profile, exercised
// through real served WSDL text.
#include <gtest/gtest.h>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::frameworks {
namespace {

using catalog::Trait;

// Indices into make_clients(), Table II order.
enum : std::size_t {
  kMetro = 0,
  kAxis1,
  kAxis2,
  kCxf,
  kJBoss,
  kCSharp,
  kVb,
  kJScript,
  kGsoap,
  kZend,
  kSuds,
};

class ClientFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    java_ = new catalog::TypeCatalog(catalog::make_java_catalog());
    dotnet_ = new catalog::TypeCatalog(catalog::make_dotnet_catalog());
    servers_ = new std::vector<std::unique_ptr<ServerFramework>>(make_servers());
    clients_ = new std::vector<std::unique_ptr<ClientFramework>>(make_clients());
  }
  static void TearDownTestSuite() {
    delete java_;
    delete dotnet_;
    delete servers_;
    delete clients_;
    java_ = nullptr;
    dotnet_ = nullptr;
    servers_ = nullptr;
    clients_ = nullptr;
  }

  static const ServerFramework& metro_server() { return *(*servers_)[0]; }
  static const ServerFramework& jbossws_server() { return *(*servers_)[1]; }
  static const ServerFramework& wcf_server() { return *(*servers_)[2]; }
  static const ClientFramework& client(std::size_t index) { return *(*clients_)[index]; }

  static std::string served(const ServerFramework& server, std::string_view type_name) {
    const catalog::TypeCatalog& types =
        server.language() == "C#" ? *dotnet_ : *java_;
    const catalog::TypeInfo* type = types.find(type_name);
    EXPECT_NE(type, nullptr) << type_name;
    Result<DeployedService> service = server.deploy(ServiceSpec{type});
    EXPECT_TRUE(service.ok()) << type_name;
    return service->wsdl_text;
  }

  static std::string served_with_trait(const ServerFramework& server, Trait trait,
                                       std::uint64_t exclude_mask = 0) {
    const catalog::TypeCatalog& types =
        server.language() == "C#" ? *dotnet_ : *java_;
    for (const catalog::TypeInfo& type : types.types()) {
      if (!type.has(trait) || (type.traits & exclude_mask) != 0) continue;
      Result<DeployedService> service = server.deploy(ServiceSpec{&type});
      EXPECT_TRUE(service.ok());
      return service->wsdl_text;
    }
    ADD_FAILURE() << "no type with requested trait";
    return {};
  }

  static catalog::TypeCatalog* java_;
  static catalog::TypeCatalog* dotnet_;
  static std::vector<std::unique_ptr<ServerFramework>>* servers_;
  static std::vector<std::unique_ptr<ClientFramework>>* clients_;
};

catalog::TypeCatalog* ClientFixture::java_ = nullptr;
catalog::TypeCatalog* ClientFixture::dotnet_ = nullptr;
std::vector<std::unique_ptr<ServerFramework>>* ClientFixture::servers_ = nullptr;
std::vector<std::unique_ptr<ClientFramework>>* ClientFixture::clients_ = nullptr;

TEST_F(ClientFixture, AllClientsRejectMalformedWsdl) {
  for (std::size_t i = 0; i < 11; ++i) {
    GenerationResult result = client(i).generate("<not-wsdl");
    EXPECT_TRUE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_FALSE(result.produced_artifacts()) << client(i).name();
  }
}

TEST_F(ClientFixture, PlainServiceGeneratesEverywhere) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kXmlGregorianCalendar);
  for (std::size_t i = 0; i < 11; ++i) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_TRUE(result.produced_artifacts()) << client(i).name();
  }
}

// --- Metro server, W3CEndpointReference (issue 'a'): everyone except
// gSOAP and Zend errors. ---
TEST_F(ClientFixture, MetroW3CEprErrorProfile) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kW3CEndpointReference);
  for (std::size_t i : {kMetro, kAxis1, kAxis2, kCxf, kJBoss, kCSharp, kVb, kJScript, kSuds}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  for (std::size_t i : {kGsoap, kZend}) {
    EXPECT_FALSE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
}

// --- Metro server, SimpleDateFormat (issue 'b'): only the .NET languages
// and gSOAP error (dangling attributeGroup). ---
TEST_F(ClientFixture, MetroSimpleDateFormatErrorProfile) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kSimpleDateFormat);
  for (std::size_t i : {kCSharp, kVb, kJScript, kGsoap}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  for (std::size_t i : {kMetro, kAxis1, kAxis2, kCxf, kJBoss, kZend, kSuds}) {
    EXPECT_FALSE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
}

// --- JBossWS server, W3CEndpointReference (issue 'd'): the attribute-ref
// variant — Axis2 now tolerates it, unlike on Metro. ---
TEST_F(ClientFixture, JBossW3CEprErrorProfile) {
  const std::string wsdl =
      served(jbossws_server(), catalog::java_names::kW3CEndpointReference);
  for (std::size_t i : {kMetro, kAxis1, kCxf, kJBoss, kCSharp, kVb, kJScript, kSuds}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  for (std::size_t i : {kAxis2, kGsoap, kZend}) {
    EXPECT_FALSE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
}

// --- JBossWS server, SimpleDateFormat (issue 'e'): dual type declaration.
// Metro warns; the .NET languages error; everyone else is silent. ---
TEST_F(ClientFixture, JBossSimpleDateFormatProfile) {
  const std::string wsdl = served(jbossws_server(), catalog::java_names::kSimpleDateFormat);
  GenerationResult metro_result = client(kMetro).generate(wsdl);
  EXPECT_FALSE(metro_result.diagnostics.has_errors());
  EXPECT_TRUE(metro_result.diagnostics.has_warnings());
  for (std::size_t i : {kCSharp, kVb, kJScript}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  for (std::size_t i : {kAxis1, kAxis2, kCxf, kJBoss, kGsoap, kZend, kSuds}) {
    EXPECT_FALSE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
}

// --- JBossWS server, operation-less Future WSDL (issue 'c'). ---
TEST_F(ClientFixture, ZeroOperationProfile) {
  const std::string wsdl = served(jbossws_server(), catalog::java_names::kFuture);
  // Errors: Metro, Axis2, all three .NET languages.
  for (std::size_t i : {kMetro, kAxis2, kCSharp, kVb, kJScript}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  // Silent acceptance — the §IV.B.1 "not the right behavior" trio.
  for (std::size_t i : {kAxis1, kCxf, kJBoss}) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_FALSE(result.diagnostics.has_warnings()) << client(i).name();
    EXPECT_TRUE(result.produced_artifacts()) << client(i).name();
  }
  // Warnings: gSOAP, Zend, suds (clients without methods).
  for (std::size_t i : {kGsoap, kZend, kSuds}) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_TRUE(result.diagnostics.has_warnings()) << client(i).name();
  }
}

// --- WCF server, DataSet idiom (issue 'f'). ---
TEST_F(ClientFixture, DataSetIdiomProfile) {
  const std::uint64_t sub_shapes = static_cast<std::uint64_t>(Trait::kDataSetDuplicated) |
                                   static_cast<std::uint64_t>(Trait::kDataSetNested) |
                                   static_cast<std::uint64_t>(Trait::kDataSetArray);
  const std::string wsdl =
      served_with_trait(wcf_server(), Trait::kDataSetSchema, sub_shapes);
  for (std::size_t i : {kMetro, kCxf, kJBoss}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  for (std::size_t i : {kAxis1, kAxis2, kCSharp, kVb, kJScript, kGsoap, kZend, kSuds}) {
    EXPECT_FALSE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
}

TEST_F(ClientFixture, DataSetDuplicatedBreaksGsoapStage2) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kDataSetDuplicated);
  GenerationResult result = client(kGsoap).generate(wsdl);
  ASSERT_TRUE(result.diagnostics.has_errors());
  EXPECT_EQ(result.diagnostics.diagnostics().front().code, "soapcpp2.duplicate-typedef");
  // Axis2 deduplicates the opaque member and survives.
  GenerationResult axis2_result = client(kAxis2).generate(wsdl);
  ASSERT_TRUE(axis2_result.produced_artifacts());
  const DiagnosticSink sink =
      compilers::make_compiler(code::Language::kJava)->compile(*axis2_result.artifacts);
  EXPECT_FALSE(sink.has_errors());
}

TEST_F(ClientFixture, DataSetNestedBreaksAxis1) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kDataSetNested);
  EXPECT_TRUE(client(kAxis1).generate(wsdl).diagnostics.has_errors());
  // The plain idiom does not.
  const std::uint64_t sub_shapes = static_cast<std::uint64_t>(Trait::kDataSetDuplicated) |
                                   static_cast<std::uint64_t>(Trait::kDataSetNested) |
                                   static_cast<std::uint64_t>(Trait::kDataSetArray);
  const std::string plain = served_with_trait(wcf_server(), Trait::kDataSetSchema, sub_shapes);
  EXPECT_FALSE(client(kAxis1).generate(plain).diagnostics.has_errors());
}

TEST_F(ClientFixture, DataSetArrayBreaksSuds) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kDataSetArray);
  EXPECT_TRUE(client(kSuds).generate(wsdl).diagnostics.has_errors());
}

TEST_F(ClientFixture, EncodedBindingWarnsDotNetAndSuds) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kSoapEncodedBinding);
  for (std::size_t i : {kCSharp, kVb, kJScript, kSuds}) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_TRUE(result.diagnostics.has_warnings()) << client(i).name();
  }
  for (std::size_t i : {kMetro, kAxis1, kAxis2, kCxf, kJBoss, kGsoap, kZend}) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_FALSE(result.diagnostics.has_warnings()) << client(i).name();
  }
}

TEST_F(ClientFixture, MissingSoapActionIsToleratedByAll) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kMissingSoapAction);
  for (std::size_t i = 0; i < 11; ++i) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_FALSE(result.diagnostics.has_warnings()) << client(i).name();
  }
}

// --- WCF server, wildcard-only content (issue 'g'). ---
TEST_F(ClientFixture, WildcardContentBreaksJavaStacks) {
  const std::string wsdl = served(wcf_server(), catalog::dotnet_names::kDataTable);
  for (std::size_t i : {kMetro, kCxf, kJBoss}) {
    EXPECT_TRUE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
  for (std::size_t i : {kAxis1, kAxis2, kCSharp, kVb, kJScript, kGsoap, kZend, kSuds}) {
    EXPECT_FALSE(client(i).generate(wsdl).diagnostics.has_errors()) << client(i).name();
  }
}

TEST_F(ClientFixture, DoubleWildcardBreaksAxis2Compile) {
  const std::string wsdl = served(wcf_server(), catalog::dotnet_names::kDataTable);
  GenerationResult result = client(kAxis2).generate(wsdl);
  ASSERT_TRUE(result.produced_artifacts());
  const DiagnosticSink sink =
      compilers::make_compiler(code::Language::kJava)->compile(*result.artifacts);
  ASSERT_TRUE(sink.has_errors());
  // Single wildcard (DataView) compiles.
  const std::string single = served(wcf_server(), catalog::dotnet_names::kDataView);
  GenerationResult view_result = client(kAxis2).generate(single);
  ASSERT_TRUE(view_result.produced_artifacts());
  EXPECT_FALSE(compilers::make_compiler(code::Language::kJava)
                   ->compile(*view_result.artifacts)
                   .has_errors());
}

TEST_F(ClientFixture, EnumWrapperBreaksAxis2CompileOnly) {
  const std::string wsdl = served(wcf_server(), catalog::dotnet_names::kSocketError);
  GenerationResult axis2_result = client(kAxis2).generate(wsdl);
  ASSERT_TRUE(axis2_result.produced_artifacts());
  EXPECT_TRUE(compilers::make_compiler(code::Language::kJava)
                  ->compile(*axis2_result.artifacts)
                  .has_errors());
  GenerationResult axis1_result = client(kAxis1).generate(wsdl);
  ASSERT_TRUE(axis1_result.produced_artifacts());
  const DiagnosticSink axis1_sink =
      compilers::make_compiler(code::Language::kJava)->compile(*axis1_result.artifacts);
  EXPECT_FALSE(axis1_sink.has_errors());
}

// --- Compilation-stage defects on Java servers. ---
TEST_F(ClientFixture, Axis1ThrowableWrapperFailsCompile) {
  std::string wsdl;
  for (const catalog::TypeInfo& type : java_->types()) {
    if (type.has(Trait::kThrowableDerived) && !type.has(Trait::kRawGenericApi)) {
      wsdl = served(metro_server(), type.qualified_name());
      break;
    }
  }
  GenerationResult result = client(kAxis1).generate(wsdl);
  ASSERT_TRUE(result.produced_artifacts());
  const DiagnosticSink sink =
      compilers::make_compiler(code::Language::kJava)->compile(*result.artifacts);
  EXPECT_TRUE(sink.has_errors());
  EXPECT_TRUE(sink.has_warnings());  // plus the unchecked-operations warning
  // Metro's own artifacts for the same service compile clean.
  GenerationResult metro_result = client(kMetro).generate(wsdl);
  ASSERT_TRUE(metro_result.produced_artifacts());
  EXPECT_TRUE(compilers::make_compiler(code::Language::kJava)
                  ->compile(*metro_result.artifacts)
                  .empty());
}

TEST_F(ClientFixture, Axis2GregorianSuffixFailsCompile) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kXmlGregorianCalendar);
  GenerationResult result = client(kAxis2).generate(wsdl);
  ASSERT_TRUE(result.produced_artifacts());
  const DiagnosticSink sink =
      compilers::make_compiler(code::Language::kJava)->compile(*result.artifacts);
  ASSERT_TRUE(sink.has_errors());
  bool found = false;
  for (const Diagnostic& diagnostic : sink.diagnostics()) {
    if (diagnostic.message.find("localgregorian") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ClientFixture, VbCollidesOnCaseOnlyFields) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kNameValuePair);
  GenerationResult vb_result = client(kVb).generate(wsdl);
  ASSERT_TRUE(vb_result.produced_artifacts());
  EXPECT_TRUE(compilers::make_compiler(code::Language::kVisualBasic)
                  ->compile(*vb_result.artifacts)
                  .has_errors());
  GenerationResult cs_result = client(kCSharp).generate(wsdl);
  ASSERT_TRUE(cs_result.produced_artifacts());
  EXPECT_FALSE(compilers::make_compiler(code::Language::kCSharp)
                   ->compile(*cs_result.artifacts)
                   .has_errors());
}

TEST_F(ClientFixture, JScriptWarnsOnEveryJavaDescription) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kXmlGregorianCalendar);
  GenerationResult result = client(kJScript).generate(wsdl);
  EXPECT_TRUE(result.diagnostics.has_warnings());
  // Not on WCF descriptions.
  const std::string wcf_wsdl = served(wcf_server(), catalog::dotnet_names::kDataView);
  EXPECT_FALSE(client(kJScript).generate(wcf_wsdl).diagnostics.has_warnings());
}

TEST_F(ClientFixture, JScriptMissingBodiesOnAnyTypeArrays) {
  const std::string wsdl = served_with_trait(metro_server(), Trait::kAnyTypeArrayField);
  GenerationResult result = client(kJScript).generate(wsdl);
  ASSERT_TRUE(result.produced_artifacts());
  const DiagnosticSink sink =
      compilers::make_compiler(code::Language::kJScript)->compile(*result.artifacts);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics().front().code, "jsc.missing-body");
}

TEST_F(ClientFixture, JScriptCrashesOnPathologicalNesting) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kCompilerPathological);
  GenerationResult result = client(kJScript).generate(wsdl);
  ASSERT_TRUE(result.produced_artifacts());
  const DiagnosticSink sink =
      compilers::make_compiler(code::Language::kJScript)->compile(*result.artifacts);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics().front().message, "131 INTERNAL COMPILER CRASH");
}

TEST_F(ClientFixture, JScriptGeneratorCrashesOnSelfRecursiveTypes) {
  const std::string wsdl = served_with_trait(wcf_server(), Trait::kGeneratorCrash);
  GenerationResult result = client(kJScript).generate(wsdl);
  EXPECT_TRUE(result.diagnostics.has_errors());
  EXPECT_FALSE(result.produced_artifacts());
  EXPECT_EQ(result.diagnostics.count(Severity::kCrash), 1u);
}

TEST_F(ClientFixture, AxisArtifactsAlwaysWarnUnchecked) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kXmlGregorianCalendar);
  for (std::size_t i : {kAxis1, kAxis2}) {
    GenerationResult result = client(i).generate(wsdl);
    ASSERT_TRUE(result.produced_artifacts());
    const DiagnosticSink sink =
        compilers::make_compiler(code::Language::kJava)->compile(*result.artifacts);
    EXPECT_TRUE(sink.has_warnings()) << client(i).name();
  }
  // The strict tools' artifacts compile without warnings.
  for (std::size_t i : {kMetro, kCxf, kJBoss}) {
    GenerationResult result = client(i).generate(wsdl);
    ASSERT_TRUE(result.produced_artifacts());
    EXPECT_TRUE(compilers::make_compiler(code::Language::kJava)
                    ->compile(*result.artifacts)
                    .empty())
        << client(i).name();
  }
}

TEST_F(ClientFixture, ErraticAxisToolsLeaveArtifactsBehindOnError) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kW3CEndpointReference);
  for (std::size_t i : {kAxis1, kAxis2}) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_TRUE(result.diagnostics.has_errors()) << client(i).name();
    EXPECT_TRUE(result.produced_artifacts()) << client(i).name();
  }
  // The strict tools do not.
  for (std::size_t i : {kMetro, kCxf, kJBoss, kCSharp}) {
    GenerationResult result = client(i).generate(wsdl);
    EXPECT_FALSE(result.produced_artifacts()) << client(i).name();
  }
}

TEST_F(ClientFixture, ZendNotesUncommonStructureWithoutFailing) {
  const std::string wsdl = served(metro_server(), catalog::java_names::kW3CEndpointReference);
  GenerationResult result = client(kZend).generate(wsdl);
  EXPECT_FALSE(result.diagnostics.has_errors());
  EXPECT_FALSE(result.diagnostics.has_warnings());
  EXPECT_EQ(result.diagnostics.count(Severity::kNote), 1u);
  EXPECT_TRUE(result.produced_artifacts());
}

TEST_F(ClientFixture, TableIIMetadataIsCorrect) {
  EXPECT_EQ(client(kMetro).tool(), "wsimport");
  EXPECT_EQ(client(kAxis1).tool(), "wsdl2java");
  EXPECT_EQ(client(kJBoss).tool(), "wsconsume");
  EXPECT_EQ(client(kCSharp).tool(), "wsdl.exe");
  EXPECT_EQ(client(kGsoap).tool(), "wsdl2h.exe and soapcpp2.exe");
  EXPECT_FALSE(client(kZend).requires_compilation());
  EXPECT_FALSE(client(kSuds).requires_compilation());
  EXPECT_TRUE(client(kGsoap).requires_compilation());
  EXPECT_EQ(client(kVb).language(), code::Language::kVisualBasic);
}

TEST(UncommonStructure, ServerModelAndServedTextAgreeOverTheCorpus) {
  // Zend's "uncommon data structure" rule reads three flags. Generation
  // reads them on the served text's parse and the marshaller on the same
  // description, so the server model a service was built from must set
  // them exactly when its served text does.
  const catalog::TypeCatalog java =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, 2));
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(catalog::scaled(catalog::DotNetCatalogSpec{}, 2));
  std::size_t services = 0;
  std::size_t flagged = 0;
  for (const auto& server : make_servers()) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    for (const ServiceSpec& spec : make_services(types)) {
      const Result<DeployedService> service = server->deploy(spec);
      if (!service.ok()) continue;
      ++services;
      const WsdlFeatures model = analyze(service->wsdl);
      const SharedDescription description = SharedDescription::from_deployed(*service);
      ASSERT_TRUE(description.parsed_ok()) << spec.service_name();
      const WsdlFeatures& served = description.features();
      const std::string where = server->name() + "/" + spec.service_name();
      EXPECT_EQ(model.unresolved_foreign_type_ref, served.unresolved_foreign_type_ref) << where;
      EXPECT_EQ(model.unresolved_foreign_attr_ref, served.unresolved_foreign_attr_ref) << where;
      EXPECT_EQ(model.schema_element_ref, served.schema_element_ref) << where;
      if (served.unresolved_foreign_type_ref || served.unresolved_foreign_attr_ref ||
          served.schema_element_ref) {
        ++flagged;
      }
    }
  }
  EXPECT_EQ(services, 182u);
  EXPECT_GT(flagged, 0u);
}

}  // namespace
}  // namespace wsx::frameworks
