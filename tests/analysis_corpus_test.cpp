// Tests for the corpus-parallel lint driver (src/analysis/corpus.*):
// determinism across worker counts, the §IV.A zero-operation prediction,
// and the failure-prediction join against the interop study.
#include <gtest/gtest.h>

#include <string>

#include "analysis/corpus.hpp"
#include "analysis/sarif.hpp"
#include "common/json.hpp"

namespace wsx::analysis {
namespace {

/// A scaled-down population: a handful of each bucket plus the named
/// special types (which every spec always includes), so the corpus covers
/// zero-operation services, wildcard schemas, and deploy refusals while
/// staying fast enough for a unit test.
CorpusOptions tiny_options() {
  CorpusOptions options;
  catalog::JavaCatalogSpec java;
  java.plain_beans = 2;
  java.throwable_clean = 1;
  java.throwable_raw = 1;
  java.raw_generic_beans = 1;
  java.anytype_array_beans = 1;
  java.async_interfaces = 2;  // Future/Response → zero-operation on JBossWS
  java.no_default_ctor = 1;
  java.abstract_classes = 1;
  java.interfaces = 1;
  java.generic_types = 1;
  options.java_spec = java;

  catalog::DotNetCatalogSpec dotnet;
  dotnet.plain_types = 2;
  dotnet.dataset_plain = 1;
  dotnet.dataset_duplicated = 1;
  dotnet.dataset_nested = 0;
  dotnet.dataset_array = 0;
  dotnet.encoded_binding = 1;
  dotnet.missing_soap_action = 1;
  dotnet.deep_nesting_clean = 1;
  dotnet.deep_nesting_pathological = 0;
  dotnet.generator_crash = 0;
  dotnet.non_serializable = 1;
  dotnet.no_default_ctor = 1;
  dotnet.generic_types = 1;
  dotnet.abstract_classes = 1;
  dotnet.interfaces = 1;
  options.dotnet_spec = dotnet;
  return options;
}

TEST(Corpus, DeterministicAcrossWorkerCounts) {
  CorpusOptions serial = tiny_options();
  serial.jobs = 1;
  CorpusOptions parallel = tiny_options();
  parallel.jobs = 8;

  const CorpusReport a = analyze_corpus(serial);
  const CorpusReport b = analyze_corpus(parallel);

  ASSERT_EQ(a.services.size(), b.services.size());
  for (std::size_t i = 0; i < a.services.size(); ++i) {
    EXPECT_EQ(a.services[i].server, b.services[i].server);
    EXPECT_EQ(a.services[i].service, b.services[i].service);
    EXPECT_EQ(a.services[i].uri, b.services[i].uri);
    EXPECT_EQ(a.services[i].zero_operations, b.services[i].zero_operations);
    EXPECT_EQ(a.services[i].findings, b.services[i].findings) << a.services[i].uri;
  }
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].rule_id, b.rules[i].rule_id);
    EXPECT_EQ(a.rules[i].findings, b.rules[i].findings);
    EXPECT_EQ(a.rules[i].services_flagged, b.rules[i].services_flagged);
  }
  EXPECT_EQ(a.deploy_refusals, b.deploy_refusals);
  EXPECT_EQ(format_report(a), format_report(b));
}

TEST(Corpus, Wsx1001FlagsExactlyTheZeroOperationServices) {
  CorpusOptions options = tiny_options();
  options.jobs = 2;
  const CorpusReport report = analyze_corpus(options);
  ASSERT_FALSE(report.services.empty());
  bool saw_zero_operations = false;
  for (const ServiceAnalysis& service : report.services) {
    EXPECT_EQ(service.zero_operations, service.flagged_by("WSX1001")) << service.uri;
    saw_zero_operations = saw_zero_operations || service.zero_operations;
  }
  // The JAX-WS async interfaces publish compliant-but-empty descriptions.
  EXPECT_TRUE(saw_zero_operations);
}

TEST(Corpus, ReportShapeAndSarifExport) {
  CorpusOptions options = tiny_options();
  options.jobs = 2;
  const CorpusReport report = analyze_corpus(options);

  EXPECT_EQ(report.servers, 3u);
  EXPECT_NE(report.summary().find("services on 3 servers"), std::string::npos);
  EXPECT_GT(report.deploy_refusals, 0u);  // abstract/interface/generic types

  // Per-rule stats cover the whole registry, in registration order.
  const RuleRegistry& registry = RuleRegistry::builtin();
  ASSERT_EQ(report.rules.size(), registry.rules().size());
  for (std::size_t i = 0; i < report.rules.size(); ++i) {
    EXPECT_EQ(report.rules[i].rule_id, registry.rules()[i]->info().id);
    EXPECT_GE(report.rules[i].findings, report.rules[i].services_flagged);
  }

  std::size_t total = 0;
  for (const ServiceAnalysis& service : report.services) total += service.findings.size();
  EXPECT_EQ(report.all_findings().size(), total);

  // The aggregated findings serialize to parseable SARIF 2.1.0.
  const Result<json::Value> sarif = json::parse(to_sarif(report.all_findings()));
  ASSERT_TRUE(sarif.ok()) << sarif.error().message;
  EXPECT_EQ(sarif->find("version")->as_string(), "2.1.0");
  EXPECT_EQ(sarif->find("runs")->items().front().find("results")->size(), total);
}

TEST(Corpus, RuleConfigDisablesRulesEndToEnd) {
  CorpusOptions options = tiny_options();
  options.jobs = 1;
  options.rules.disabled.insert("WSX1006");
  const CorpusReport report = analyze_corpus(options);
  for (const RuleStats& stats : report.rules) {
    EXPECT_NE(stats.rule_id, "WSX1006");
  }
  for (const ServiceAnalysis& service : report.services) {
    EXPECT_FALSE(service.flagged_by("WSX1006")) << service.uri;
  }
}

TEST(Corpus, StudyJoinComputesConfusionCounts) {
  CorpusOptions options = tiny_options();
  options.jobs = 2;
  options.join_study = true;
  const CorpusReport report = analyze_corpus(options);
  ASSERT_TRUE(report.joined);

  std::size_t errored = 0;
  for (const ServiceAnalysis& service : report.services) {
    if (service.downstream_error) ++errored;
  }
  EXPECT_GT(errored, 0u);  // the corpus reproduces failing descriptions

  for (const RuleStats& stats : report.rules) {
    EXPECT_EQ(stats.true_positives + stats.false_positives, stats.services_flagged);
    EXPECT_EQ(stats.true_positives + stats.false_negatives, errored);
    EXPECT_GE(stats.precision(), 0.0);
    EXPECT_LE(stats.precision(), 1.0);
    EXPECT_GE(stats.recall(), 0.0);
    EXPECT_LE(stats.recall(), 1.0);
  }

  // The joined report prints precision/recall columns.
  EXPECT_NE(format_report(report).find("precision"), std::string::npos);
}

}  // namespace
}  // namespace wsx::analysis
