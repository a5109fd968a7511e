// Tests for the static compatibility predictor (src/analysis/predict.*):
// it predicts one verdict per client roster row, single-service predictions
// reproduce known framework verdicts without running generation, the
// joined corpus pass scores perfectly against the dynamic study it was
// distilled from, and prediction records round-trip through JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/predict.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/artifact_builder.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "test_helpers.hpp"
#include "wsdl/writer.hpp"

namespace wsx::analysis::predict {
namespace {

/// A small but defect-rich population: every special catalog type (which
/// the specs always include) plus a couple of each bucket.
PredictOptions tiny_options() {
  PredictOptions options;
  catalog::JavaCatalogSpec java;
  java.plain_beans = 2;
  java.throwable_clean = 1;
  java.throwable_raw = 1;
  java.raw_generic_beans = 1;
  java.anytype_array_beans = 1;
  java.no_default_ctor = 1;
  java.abstract_classes = 1;
  java.interfaces = 1;
  java.generic_types = 1;
  options.java_spec = java;
  catalog::DotNetCatalogSpec dotnet;
  dotnet.plain_types = 2;
  dotnet.dataset_plain = 1;
  dotnet.dataset_duplicated = 1;
  dotnet.encoded_binding = 1;
  dotnet.deep_nesting_clean = 1;
  dotnet.deep_nesting_pathological = 1;
  dotnet.non_serializable = 1;
  dotnet.no_default_ctor = 1;
  dotnet.generic_types = 1;
  dotnet.abstract_classes = 1;
  dotnet.interfaces = 1;
  options.dotnet_spec = dotnet;
  options.jobs = 2;
  return options;
}

TEST(PredictRules, EveryRosterRowPredictsOneClient) {
  // The predictor reads Table II's rows: one verdict per client tool, in
  // make_clients() order, with a compilation step exactly where the tool
  // has one.
  const ServicePrediction prediction = predict_service(frameworks::SharedDescription::from_text(
      wsdl::to_string(testing::compliant_echo_definitions())));
  const auto clients = frameworks::make_clients();
  ASSERT_EQ(prediction.clients.size(), clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(prediction.clients[i].client, clients[i]->name());
    EXPECT_EQ(prediction.clients[i].compiled, clients[i]->requires_compilation())
        << clients[i]->name();
  }
}

TEST(PredictService, UnparsableTextPredictsUniversalGenerationError) {
  const ServicePrediction prediction =
      predict_service(frameworks::SharedDescription::from_text("<not-wsdl"));
  ASSERT_EQ(prediction.clients.size(), frameworks::make_clients().size());
  EXPECT_FALSE(prediction.fingerprint.empty());
  for (const ClientPrediction& client : prediction.clients) {
    EXPECT_TRUE(client.generation.error) << client.client;
    ASSERT_EQ(client.generation.mechanisms.size(), 1u) << client.client;
    EXPECT_EQ(client.generation.mechanisms.front(), "parse-failure");
    EXPECT_FALSE(client.artifacts);
  }
}

TEST(PredictService, ForeignTypeSplitsTheRoster) {
  // W3CEndpointReference references a foreign schema type (§IV.B): every
  // static binding-time tool must fail generation, while gSOAP and Zend
  // consume the description cleanly.
  const auto server = frameworks::make_server("Metro 2.3");
  ASSERT_NE(server, nullptr);
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const catalog::TypeInfo* type =
      catalog.find("javax.xml.ws.wsaddressing.W3CEndpointReference");
  ASSERT_NE(type, nullptr);
  Result<frameworks::DeployedService> deployed =
      server->deploy(frameworks::ServiceSpec{type});
  ASSERT_TRUE(deployed.ok()) << deployed.error().message;

  const ServicePrediction prediction =
      predict_service(frameworks::SharedDescription::from_deployed(deployed.value()));
  bool saw_gsoap = false;
  bool saw_metro = false;
  for (const ClientPrediction& client : prediction.clients) {
    if (client.client == "gSOAP Toolkit 2.8.16") {
      saw_gsoap = true;
      EXPECT_FALSE(client.generation.error);
      EXPECT_FALSE(client.compilation.error);
    }
    if (client.client == "Oracle Metro 2.3") {
      saw_metro = true;
      EXPECT_TRUE(client.generation.error);
      EXPECT_NE(std::find(client.generation.mechanisms.begin(),
                          client.generation.mechanisms.end(), "unresolved-type-ref"),
                client.generation.mechanisms.end());
      EXPECT_FALSE(client.artifacts);  // Metro refuses artifacts on error
    }
  }
  EXPECT_TRUE(saw_gsoap);
  EXPECT_TRUE(saw_metro);

  const std::string formatted = format_service_prediction(prediction);
  EXPECT_NE(formatted.find("fingerprint"), std::string::npos);
  EXPECT_NE(formatted.find("unresolved-type-ref"), std::string::npos);
}

TEST(PredictCorpus, JoinedScoresAreExactAgainstTheDynamicStudy) {
  PredictOptions options = tiny_options();
  options.join_study = true;
  const PredictReport report = predict_corpus(options);
  ASSERT_TRUE(report.joined);
  ASSERT_FALSE(report.services.empty());
  ASSERT_EQ(report.clients.size(), frameworks::make_clients().size());

  // The rules are distilled from the very framework models the study runs,
  // so the predictor must agree with the ground truth on every flag. Any
  // mismatch here means a framework model changed without its rule.
  EXPECT_EQ(report.overall.exact_matches, report.overall.tests);
  EXPECT_EQ(report.overall.false_positives, 0u);
  EXPECT_EQ(report.overall.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(report.overall.precision(), 1.0);
  EXPECT_DOUBLE_EQ(report.overall.recall(), 1.0);
  EXPECT_GT(report.overall.true_positives, 0u);  // the corpus does fail somewhere
  for (const ClientScore& client : report.clients) {
    EXPECT_EQ(client.exact_matches, client.tests) << client.client;
  }

  const std::string formatted = format_predict_report(report);
  EXPECT_NE(formatted.find("precision"), std::string::npos);
  EXPECT_NE(formatted.find("overall"), std::string::npos);
}

TEST(PredictCorpus, UnjoinedReportCountsPredictionsOnly) {
  PredictOptions options = tiny_options();
  options.join_study = false;
  const PredictReport report = predict_corpus(options);
  EXPECT_FALSE(report.joined);
  // Score rows exist for shape stability but carry no joined tests.
  for (const ClientScore& client : report.clients) {
    EXPECT_EQ(client.tests, 0u) << client.client;
  }
  EXPECT_EQ(report.servers, 3u);
  EXPECT_GT(report.deploy_refusals, 0u);
  EXPECT_NE(report.summary().find("predicted to fail"), std::string::npos);
}

TEST(PredictRecord, JsonRoundTripsByteIdentically) {
  const PredictOptions options = tiny_options();
  const frameworks::Corpus corpus(options.java_spec, options.dotnet_spec, options.shape);
  ASSERT_FALSE(corpus.plan.tasks.empty());
  for (std::size_t i = 0; i < corpus.plan.tasks.size(); i += 7) {  // sample the corpus
    Result<frameworks::DeployedService> deployed = corpus.deploy(i);
    ASSERT_TRUE(deployed.ok()) << deployed.error().message;
    const ServicePredictionRecord record =
        predict_service_job(corpus.round(i).server->name(), *deployed);
    const std::string json = record_json(record);
    Result<ServicePredictionRecord> parsed = record_from_json(json);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value(), record) << record.uri;
    EXPECT_EQ(record_json(parsed.value()), json) << record.uri;
  }
  EXPECT_FALSE(record_from_json("{}").ok());
  EXPECT_FALSE(record_from_json("nope").ok());
}

/// A description whose one complexType nests `depth` levels of inline
/// anonymous types, in the shape servers publish deep-nesting types.
wsdl::Definitions nested_description(std::size_t depth) {
  xsd::ComplexType current;
  xsd::ElementDecl cell;
  cell.name = "cell";
  cell.type = xsd::qname(xsd::Builtin::kString);
  current.particles.emplace_back(std::move(cell));
  for (std::size_t level = 1; level < depth; ++level) {
    xsd::ComplexType outer;
    xsd::ElementDecl row;
    row.name = "row" + std::to_string(depth - level);
    row.inline_type = Box<xsd::ComplexType>{std::move(current)};
    outer.particles.emplace_back(std::move(row));
    current = std::move(outer);
  }
  current.name = "Nested";
  xsd::Schema schema;
  schema.complex_types.push_back(std::move(current));
  wsdl::Definitions defs;
  defs.schemas.push_back(std::move(schema));
  return defs;
}

TEST(PredictSignals, NestingSignalsFireWhereTheJScriptBuilderFails) {
  frameworks::ArtifactBuildOptions jscript;  // as the JScript client sets them
  jscript.language = code::Language::kJScript;
  jscript.missing_body_on_complex_shapes = true;
  jscript.pathological_marker_on_very_deep = true;
  for (std::size_t depth = 2; depth <= 6; ++depth) {
    const wsdl::Definitions defs = nested_description(depth);
    ASSERT_EQ(defs.schemas.front().complex_types.front().nesting_depth(), depth);
    const ShapeSignals signals = collect_signals(defs);
    const code::Artifacts artifacts =
        frameworks::build_artifacts(defs, frameworks::analyze(defs), jscript);
    const code::CompilationUnit& types = artifacts.units.front();
    const bool dropped_body =
        std::any_of(types.classes.begin(), types.classes.end(), [](const code::Class& cls) {
          return std::any_of(cls.methods.begin(), cls.methods.end(),
                             [](const code::Method& method) { return !method.has_body; });
        });
    EXPECT_EQ(signals.deep_nesting, dropped_body) << "depth " << depth;
    EXPECT_EQ(signals.very_deep_nesting, types.pathological) << "depth " << depth;
    EXPECT_EQ(dropped_body, depth >= 3) << "depth " << depth;
    EXPECT_EQ(types.pathological, depth >= 5) << "depth " << depth;
  }
}

}  // namespace
}  // namespace wsx::analysis::predict
