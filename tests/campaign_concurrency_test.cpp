// campaign_concurrency_test — the per-service task engine with live
// observability sinks on the workers. Deploy, describe, the client tests
// and chaos chains run on pool threads and update the shared obs::Registry
// from there; the fold builds the span tree on the calling thread. Under
// ThreadSanitizer (the `tsan` preset runs this binary) these are the cases
// that would see a race; everywhere they pin that jobs 8 with both sinks
// attached exports exactly what jobs 1 does.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "chaos/campaign.hpp"
#include "frameworks/version_policy.hpp"
#include "gen/campaign.hpp"
#include "interop/report_formats.hpp"
#include "interop/study.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx {
namespace {

/// A few services per bucket: TSan multiplies the cost of every run.
void tiny_specs(catalog::JavaCatalogSpec& java, catalog::DotNetCatalogSpec& dotnet) {
  java.plain_beans = 6;
  java.throwable_clean = 1;
  java.throwable_raw = 1;
  java.raw_generic_beans = 1;
  java.anytype_array_beans = 1;
  java.no_default_ctor = 1;
  java.abstract_classes = 1;
  java.interfaces = 1;
  java.generic_types = 1;
  dotnet.plain_types = 6;
  dotnet.dataset_plain = 1;
  dotnet.deep_nesting_clean = 1;
  dotnet.deep_nesting_pathological = 1;
  dotnet.non_serializable = 1;
  dotnet.no_default_ctor = 1;
  dotnet.generic_types = 1;
  dotnet.abstract_classes = 1;
  dotnet.interfaces = 1;
}

/// Deterministic metric export, span shape and report of one run.
struct SinkedRun {
  std::string metrics;
  std::string shape;
  std::string report;

  bool operator==(const SinkedRun&) const = default;
};

SinkedRun study_with_sinks(std::size_t jobs) {
  const obs::FixedClock frozen;
  obs::Tracer tracer(&frozen);
  obs::Registry registry(&frozen);
  interop::StudyConfig config;
  tiny_specs(config.java_spec, config.dotnet_spec);
  config.threads = jobs;
  config.tracer = &tracer;
  config.metrics = &registry;
  const interop::StudyResult result = interop::run_study(config);
  return {registry.to_json(obs::Export::kDeterministic), tracer.shape(),
          interop::fig4_csv(result) + interop::table3_csv(result)};
}

SinkedRun chaos_with_sinks(std::size_t jobs) {
  const obs::FixedClock frozen;
  obs::Tracer tracer(&frozen);
  obs::Registry registry(&frozen);
  chaos::ChaosConfig config;
  tiny_specs(config.java_spec, config.dotnet_spec);
  config.plan.seed = 7;
  config.calls_per_pair = 2;
  config.jobs = jobs;
  config.tracer = &tracer;
  config.metrics = &registry;
  const chaos::ChaosResult result = chaos::run_chaos_study(config);
  return {registry.to_json(obs::Export::kDeterministic), tracer.shape(),
          chaos::chaos_csv(result)};
}

TEST(CampaignConcurrency, StudyWithLiveSinksMatchesJobs1) {
  const SinkedRun serial = study_with_sinks(1);
  EXPECT_EQ(study_with_sinks(8), serial);
  EXPECT_NE(serial.metrics.find("study.step.deploy_us"), std::string::npos);
  EXPECT_NE(serial.shape.find("phase:testing"), std::string::npos);
}

TEST(CampaignConcurrency, ChaosWithLiveSinksMatchesJobs1) {
  const SinkedRun serial = chaos_with_sinks(1);
  EXPECT_EQ(chaos_with_sinks(8), serial);
  EXPECT_NE(serial.metrics.find("chaos.calls_total"), std::string::npos);
  EXPECT_NE(serial.shape.find("round:"), std::string::npos);
}

TEST(CampaignConcurrency, ChaosCountersMatchTheResult) {
  // chaos.calls_total, chaos.retransmits and chaos.faults_injected count
  // what the result's cells count, at any worker count.
  for (const std::size_t jobs : {1u, 8u}) {
    obs::Registry registry;
    chaos::ChaosConfig config;
    tiny_specs(config.java_spec, config.dotnet_spec);
    config.plan.seed = 7;
    config.calls_per_pair = 4;
    config.versions = {frameworks::VersionPolicy::kStrict, frameworks::VersionPolicy::kShadedCxf};
    config.jobs = jobs;
    config.metrics = &registry;
    const chaos::ChaosResult result = chaos::run_chaos_study(config);
    std::size_t retransmits = 0;
    std::size_t faulted = 0;
    for (const chaos::ChaosServerResult& server : result.servers) {
      for (const chaos::ChaosCell& cell : server.cells) {
        retransmits += cell.retransmits;
        faulted += cell.faulted_attempts;
      }
    }
    EXPECT_GT(result.total_attempted(), 0u);
    EXPECT_GT(faulted, 0u);
    EXPECT_EQ(registry.counter("chaos.calls_total").value(), result.total_attempted()) << jobs;
    EXPECT_EQ(registry.counter("chaos.retransmits").value(), retransmits) << jobs;
    EXPECT_EQ(registry.counter("chaos.faults_injected").value(), faulted) << jobs;
  }
}

TEST(CampaignConcurrency, PropcheckCountersMatchTheResult) {
  // gen.cases_total counts every case a pair ran past its baseline probe,
  // and gen.failures every counterexample the result lists, at any worker
  // count.
  for (const std::size_t jobs : {1u, 8u}) {
    obs::Registry registry;
    gen::GenConfig config;
    tiny_specs(config.java_spec, config.dotnet_spec);
    config.corpus.seed = 7;
    config.corpus.sabotage = true;
    config.jobs = jobs;
    config.metrics = &registry;
    const gen::PropcheckResult result = gen::run_propcheck(config);
    const std::size_t cases =
        result.total(gen::PropOutcome::kPass) + result.total(gen::PropOutcome::kSkipped) +
        result.total(gen::PropOutcome::kInvalidValue) + result.total(gen::PropOutcome::kMismatch);
    EXPECT_GT(cases, 0u);
    EXPECT_GT(result.total_failures(), 0u);
    EXPECT_EQ(result.total(gen::PropOutcome::kTimedOut), 0u);
    EXPECT_EQ(registry.counter("gen.cases_total").value(), cases) << jobs;
    EXPECT_EQ(registry.counter("gen.failures").value(), result.total_failures()) << jobs;
  }
}

}  // namespace
}  // namespace wsx
