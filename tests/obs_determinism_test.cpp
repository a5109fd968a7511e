// obs_determinism_test — the cross-worker-count determinism pack. Each
// campaign (study, chaos, lint-corpus, predict-corpus) runs twice with identical inputs at
// --jobs 1 and --jobs 8, under a FixedClock so durations cannot differ,
// and must produce:
//   * byte-identical metric exports in Export::kDeterministic mode, and
//   * an identical canonical span-tree shape.
// This is the executable form of the repo-wide invariant that worker count
// never changes campaign output (fixed slices, slice-order merges).
#include <gtest/gtest.h>

#include <string>

#include "analysis/corpus.hpp"
#include "analysis/predict.hpp"
#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "chaos/campaign.hpp"
#include "interop/study.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx {
namespace {

/// A small-but-not-tiny population: enough services that 8 workers all
/// receive non-empty slices.
catalog::JavaCatalogSpec small_java() {
  catalog::JavaCatalogSpec spec;
  spec.plain_beans = 40;
  spec.throwable_clean = 8;
  spec.throwable_raw = 2;
  spec.raw_generic_beans = 4;
  spec.anytype_array_beans = 2;
  spec.no_default_ctor = 12;
  spec.abstract_classes = 6;
  spec.interfaces = 8;
  spec.generic_types = 4;
  return spec;
}

catalog::DotNetCatalogSpec small_dotnet() {
  catalog::DotNetCatalogSpec spec;
  spec.plain_types = 42;
  spec.dataset_plain = 2;
  spec.deep_nesting_clean = 6;
  spec.deep_nesting_pathological = 1;
  spec.non_serializable = 16;
  spec.no_default_ctor = 14;
  spec.generic_types = 8;
  spec.abstract_classes = 5;
  spec.interfaces = 4;
  return spec;
}

/// Deterministic export + canonical shape of one instrumented run.
struct RunSignature {
  std::string metrics;
  std::string shape;

  bool operator==(const RunSignature&) const = default;
};

RunSignature run_study_at(std::size_t threads) {
  const obs::FixedClock frozen;
  obs::Tracer tracer(&frozen);
  obs::Registry registry(&frozen);
  interop::StudyConfig config;
  config.java_spec = small_java();
  config.dotnet_spec = small_dotnet();
  config.threads = threads;
  config.tracer = &tracer;
  config.metrics = &registry;
  (void)interop::run_study(config);
  return {registry.to_json(obs::Export::kDeterministic), tracer.shape()};
}

RunSignature run_chaos_at(std::size_t jobs) {
  const obs::FixedClock frozen;
  obs::Tracer tracer(&frozen);
  obs::Registry registry(&frozen);
  chaos::ChaosConfig config;
  config.java_spec = small_java();
  config.dotnet_spec = small_dotnet();
  config.plan.seed = 7;
  config.calls_per_pair = 2;
  config.jobs = jobs;
  config.tracer = &tracer;
  config.metrics = &registry;
  (void)chaos::run_chaos_study(config);
  return {registry.to_json(obs::Export::kDeterministic), tracer.shape()};
}

RunSignature run_lint_at(std::size_t jobs) {
  const obs::FixedClock frozen;
  obs::Tracer tracer(&frozen);
  obs::Registry registry(&frozen);
  analysis::CorpusOptions options;
  options.java_spec = small_java();
  options.dotnet_spec = small_dotnet();
  options.jobs = jobs;
  options.tracer = &tracer;
  options.metrics = &registry;
  (void)analysis::analyze_corpus(options);
  return {registry.to_json(obs::Export::kDeterministic), tracer.shape()};
}

RunSignature run_predict_at(std::size_t jobs) {
  const obs::FixedClock frozen;
  obs::Tracer tracer(&frozen);
  obs::Registry registry(&frozen);
  analysis::predict::PredictOptions options;
  options.java_spec = small_java();
  options.dotnet_spec = small_dotnet();
  options.jobs = jobs;
  options.tracer = &tracer;
  options.metrics = &registry;
  (void)analysis::predict::predict_corpus(options);
  return {registry.to_json(obs::Export::kDeterministic), tracer.shape()};
}

TEST(ObsDeterminism, StudyExportIsIdenticalAtJobs1And8) {
  const RunSignature serial = run_study_at(1);
  const RunSignature parallel = run_study_at(8);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.shape, parallel.shape);
  // The export is non-trivial: real counters and a real tree.
  EXPECT_NE(serial.metrics.find("study.tests_total"), std::string::npos);
  EXPECT_NE(serial.shape.find("phase:testing"), std::string::npos);
}

TEST(ObsDeterminism, StudyExportIsStableAcrossRepeatedRuns) {
  EXPECT_EQ(run_study_at(8), run_study_at(8));
}

TEST(ObsDeterminism, ChaosExportIsIdenticalAtJobs1And8) {
  const RunSignature serial = run_chaos_at(1);
  const RunSignature parallel = run_chaos_at(8);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.shape, parallel.shape);
  EXPECT_NE(serial.metrics.find("chaos.calls_total"), std::string::npos);
  EXPECT_NE(serial.shape.find("round:"), std::string::npos);
}

TEST(ObsDeterminism, LintCorpusExportIsIdenticalAtJobs1And8) {
  const RunSignature serial = run_lint_at(1);
  const RunSignature parallel = run_lint_at(8);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.shape, parallel.shape);
  EXPECT_NE(serial.metrics.find("lint.services_total"), std::string::npos);
  EXPECT_NE(serial.shape.find("pass:lint"), std::string::npos);
}

TEST(ObsDeterminism, PredictCorpusExportIsIdenticalAtJobs1And8) {
  const RunSignature serial = run_predict_at(1);
  const RunSignature parallel = run_predict_at(8);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.shape, parallel.shape);
  EXPECT_NE(serial.metrics.find("predict.services_total"), std::string::npos);
  EXPECT_NE(serial.shape.find("pass:predict"), std::string::npos);
}

TEST(ObsDeterminism, FrozenClockZeroesEveryDuration) {
  const obs::FixedClock frozen(12345);
  obs::Registry registry(&frozen);
  interop::StudyConfig config;
  config.java_spec = small_java();
  config.dotnet_spec = small_dotnet();
  config.threads = 4;
  config.metrics = &registry;
  (void)interop::run_study(config);
  EXPECT_GT(registry.histogram("study.step.generation_us").count(), 0u);
  EXPECT_EQ(registry.histogram("study.step.generation_us").sum(), 0u);
  EXPECT_EQ(registry.histogram("study.phase.testing_us").sum(), 0u);
}

}  // namespace
}  // namespace wsx
