// Tests for the supervised campaign drivers (interop/supervised.*,
// chaos/supervised.*, analysis/supervised_corpus.*): config fingerprints
// round-trip through their JSON inverses, a fully-covered supervised run
// reproduces the legacy driver's report byte-for-byte, and an interrupted
// run resumed from its journal matches an uninterrupted one at any worker
// count — the ISSUE's central equivalence guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/corpus.hpp"
#include "analysis/supervised_corpus.hpp"
#include "chaos/campaign.hpp"
#include "chaos/supervised.hpp"
#include "frameworks/registry.hpp"
#include "interop/communication.hpp"
#include "interop/report.hpp"
#include "interop/report_formats.hpp"
#include "interop/study.hpp"
#include "interop/supervised.hpp"
#include "resilience/journal.hpp"

namespace wsx {
namespace {

/// A deliberately tiny population: every campaign below runs several times,
/// so the corpus is kept to a few services per bucket.
void tiny_specs(catalog::JavaCatalogSpec& java, catalog::DotNetCatalogSpec& dotnet) {
  java.plain_beans = 4;
  java.throwable_clean = 1;
  java.throwable_raw = 1;
  java.raw_generic_beans = 1;
  java.anytype_array_beans = 1;
  java.no_default_ctor = 1;
  java.abstract_classes = 1;
  java.interfaces = 1;
  java.generic_types = 1;
  dotnet.plain_types = 4;
  dotnet.dataset_plain = 1;
  dotnet.deep_nesting_clean = 1;
  dotnet.deep_nesting_pathological = 1;
  dotnet.non_serializable = 1;
  dotnet.no_default_ctor = 1;
  dotnet.generic_types = 1;
  dotnet.abstract_classes = 1;
  dotnet.interfaces = 1;
}

interop::StudyConfig tiny_study() {
  interop::StudyConfig config;
  tiny_specs(config.java_spec, config.dotnet_spec);
  return config;
}

chaos::ChaosConfig tiny_chaos() {
  chaos::ChaosConfig config;
  tiny_specs(config.java_spec, config.dotnet_spec);
  config.calls_per_pair = 3;
  return config;
}

analysis::CorpusOptions tiny_corpus() {
  analysis::CorpusOptions options;
  tiny_specs(options.java_spec, options.dotnet_spec);
  return options;
}

std::string study_report(const interop::StudyResult& result) {
  return interop::fig4_csv(result) + "\n" + interop::table3_csv(result);
}

struct ScratchJournal {
  std::string path;
  explicit ScratchJournal(const std::string& name)
      : path(testing::TempDir() + "wsx_supervised_" + name + ".journal") {
    std::remove(path.c_str());
  }
  ~ScratchJournal() { std::remove(path.c_str()); }
  std::string read() const {
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
  }
};

// ------------------------------------------------------ config fingerprints

TEST(ConfigFingerprint, StudyRoundTrips) {
  interop::StudyConfig config = tiny_study();
  config.samples_per_cell = 5;
  config.shape = frameworks::ServiceShape::kCrud;
  config.wsi_deploy_gate = true;
  const std::string json = interop::study_config_json(config);
  Result<interop::StudyConfig> parsed = interop::study_config_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(interop::study_config_json(*parsed), json);
  EXPECT_EQ(parsed->samples_per_cell, 5u);
  EXPECT_EQ(parsed->shape, frameworks::ServiceShape::kCrud);
  EXPECT_TRUE(parsed->wsi_deploy_gate);
}

TEST(ConfigFingerprint, CommunicationRoundTrips) {
  interop::StudyConfig config = tiny_study();
  const std::string json = interop::communication_config_json(config);
  Result<interop::StudyConfig> parsed = interop::communication_config_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(interop::communication_config_json(*parsed), json);
}

TEST(ConfigFingerprint, ChaosRoundTrips) {
  chaos::ChaosConfig config = tiny_chaos();
  config.plan.seed = 99;
  config.plan.rate_percent = 45;
  config.plan.max_burst = 2;
  config.plan.kinds = {chaos::FaultKind::kConnectionReset, chaos::FaultKind::kHttp503};
  config.breaker.failure_threshold = 5;
  config.breaker.open_ms = 250;
  const std::string json = chaos::chaos_config_json(config);
  Result<chaos::ChaosConfig> parsed = chaos::chaos_config_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(chaos::chaos_config_json(*parsed), json);
  EXPECT_EQ(parsed->plan.seed, 99u);
  ASSERT_EQ(parsed->plan.kinds.size(), 2u);
  EXPECT_EQ(parsed->plan.kinds[1], chaos::FaultKind::kHttp503);
}

TEST(ConfigFingerprint, CorpusRoundTrips) {
  analysis::CorpusOptions options = tiny_corpus();
  options.join_study = true;
  options.rules.disabled.insert("R2102");
  options.rules.only.insert("WSX1001");
  options.rules.severity_overrides["WSX1001"] = Severity::kError;
  const std::string json = analysis::corpus_config_json(options);
  Result<analysis::CorpusOptions> parsed = analysis::corpus_config_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(analysis::corpus_config_json(*parsed), json);
  EXPECT_TRUE(parsed->join_study);
  EXPECT_EQ(parsed->rules.disabled.count("R2102"), 1u);
  EXPECT_EQ(parsed->rules.severity_overrides.at("WSX1001"), Severity::kError);
}

TEST(ConfigFingerprint, MalformedTextIsRejected) {
  EXPECT_FALSE(interop::study_config_from_json("{}").ok());
  EXPECT_FALSE(interop::communication_config_from_json("nope").ok());
  EXPECT_FALSE(chaos::chaos_config_from_json("{\"java\":{}}").ok());
  EXPECT_FALSE(analysis::corpus_config_from_json("[]").ok());
}

// ------------------------------------------------- legacy-path equivalence

TEST(SupervisedStudy, FullCoverageMatchesLegacyReport) {
  const interop::StudyConfig config = tiny_study();
  const interop::StudyResult legacy = interop::run_study(config);
  Result<interop::SupervisedStudyResult> supervised =
      interop::run_study_supervised(config, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(study_report(supervised->study), study_report(legacy));
  EXPECT_EQ(supervised->supervisor.completed, supervised->supervisor.tasks.size());
  EXPECT_FALSE(supervised->supervisor.degraded);
}

TEST(SupervisedCommunication, FullCoverageMatchesLegacyReport) {
  const interop::StudyConfig config = tiny_study();
  const interop::CommunicationResult legacy = interop::run_communication_study(config);
  Result<interop::SupervisedCommunicationResult> supervised =
      interop::run_communication_supervised(config, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(interop::format_communication(supervised->communication),
            interop::format_communication(legacy));
}

TEST(SupervisedChaos, FullCoverageMatchesLegacyReport) {
  const chaos::ChaosConfig config = tiny_chaos();
  const chaos::ChaosResult legacy = chaos::run_chaos_study(config);
  Result<chaos::SupervisedChaosResult> supervised = chaos::run_chaos_supervised(config, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(chaos::chaos_csv(supervised->chaos), chaos::chaos_csv(legacy));
  EXPECT_EQ(chaos::chaos_recovery_json(supervised->chaos), chaos::chaos_recovery_json(legacy));
}

TEST(SupervisedCorpus, FullCoverageMatchesLegacyReport) {
  const analysis::CorpusOptions options = tiny_corpus();
  const analysis::CorpusReport legacy = analysis::analyze_corpus(options);
  Result<analysis::SupervisedCorpusResult> supervised =
      analysis::analyze_corpus_supervised(options, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(analysis::format_report(supervised->report), analysis::format_report(legacy));
  ASSERT_EQ(supervised->report.services.size(), legacy.services.size());
  for (std::size_t i = 0; i < legacy.services.size(); ++i) {
    EXPECT_EQ(supervised->report.services[i].server, legacy.services[i].server);
    EXPECT_EQ(supervised->report.services[i].findings.size(),
              legacy.services[i].findings.size());
  }
}

// --------------------------------------------- interrupt/resume equivalence

TEST(SupervisedStudy, InterruptedRunResumesByteIdentically) {
  interop::StudyConfig config = tiny_study();
  resilience::Supervision base;
  base.journal.checkpoint_every = 4;

  resilience::Supervision straight = base;
  config.threads = 1;
  Result<interop::SupervisedStudyResult> uninterrupted =
      interop::run_study_supervised(config, straight);
  ASSERT_TRUE(uninterrupted.ok());
  const std::string want = study_report(uninterrupted->study);

  // Interrupt after a few checkpointed tasks, then resume — once at one
  // worker and once at eight. Every path must land on the same bytes.
  for (const std::size_t resume_jobs : {std::size_t{1}, std::size_t{8}}) {
    ScratchJournal scratch("study_j" + std::to_string(resume_jobs));
    resilience::Supervision interrupted = base;
    config.threads = 8;
    interrupted.checkpoint_path = scratch.path;
    interrupted.trip_after_tasks = 5;
    Result<interop::SupervisedStudyResult> tripped =
        interop::run_study_supervised(config, interrupted);
    ASSERT_TRUE(tripped.ok());
    ASSERT_TRUE(tripped->supervisor.tripped);
    EXPECT_NE(study_report(tripped->study), want);  // partial fold ≠ full report

    Result<resilience::Journal> journal = resilience::Journal::parse(scratch.read());
    ASSERT_TRUE(journal.ok()) << journal.error().message;
    // The CLI re-derives the config from the journal header; do the same.
    Result<interop::StudyConfig> rederived =
        interop::study_config_from_json(journal->config_json);
    ASSERT_TRUE(rederived.ok()) << rederived.error().message;

    resilience::Supervision resumed = base;
    rederived->threads = resume_jobs;
    resumed.checkpoint_path = scratch.path;
    resumed.resume = &journal.value();
    Result<interop::SupervisedStudyResult> finished =
        interop::run_study_supervised(*rederived, resumed);
    ASSERT_TRUE(finished.ok()) << finished.error().message;
    EXPECT_FALSE(finished->supervisor.tripped);
    EXPECT_GT(finished->supervisor.resumed, 0u);
    EXPECT_EQ(study_report(finished->study), want);
  }
}

TEST(SupervisedChaos, InterruptedRunResumesByteIdentically) {
  const chaos::ChaosConfig config = tiny_chaos();
  ScratchJournal scratch("chaos");
  resilience::Supervision base;
  base.journal.checkpoint_every = 3;

  Result<chaos::SupervisedChaosResult> uninterrupted =
      chaos::run_chaos_supervised(config, base);
  ASSERT_TRUE(uninterrupted.ok());

  resilience::Supervision interrupted = base;
  interrupted.checkpoint_path = scratch.path;
  interrupted.trip_after_tasks = 4;
  ASSERT_TRUE(chaos::run_chaos_supervised(config, interrupted).ok());

  Result<resilience::Journal> journal = resilience::Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  Result<chaos::ChaosConfig> rederived = chaos::chaos_config_from_json(journal->config_json);
  ASSERT_TRUE(rederived.ok()) << rederived.error().message;
  rederived->jobs = 8;
  resilience::Supervision resumed = base;
  resumed.checkpoint_path = scratch.path;
  resumed.resume = &journal.value();
  Result<chaos::SupervisedChaosResult> finished =
      chaos::run_chaos_supervised(*rederived, resumed);
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_EQ(chaos::chaos_csv(finished->chaos), chaos::chaos_csv(uninterrupted->chaos));
}

// ------------------------------------------------- degradation & timeouts

TEST(SupervisedStudy, BudgetDegradesWithPartialCoverage) {
  const interop::StudyConfig config = tiny_study();
  resilience::Supervision options;
  options.journal.checkpoint_every = 2;
  options.journal.budget_tasks = 3;
  Result<interop::SupervisedStudyResult> supervised =
      interop::run_study_supervised(config, options);
  ASSERT_TRUE(supervised.ok());
  EXPECT_TRUE(supervised->supervisor.degraded);
  EXPECT_GT(supervised->supervisor.not_admitted, 0u);
  EXPECT_EQ(supervised->supervisor.completed, 4u);  // two admitted blocks
  // The partial fold still counts exactly the admitted tasks' tests: one
  // per client for each completed (server, service) task.
  EXPECT_EQ(supervised->study.total_tests(),
            supervised->supervisor.completed * frameworks::make_clients().size());
}

TEST(SupervisedChaos, DeadlineQuarantineFoldsAsTimedOutOutcome) {
  chaos::ChaosConfig config = tiny_chaos();
  resilience::Supervision options;
  // Every live chain charges its real virtual milliseconds; 1 ms is
  // impossible, so those tasks deadline-quarantine and their cells fold as
  // kTimedOut. (Services whose chains are all blocked earlier charge zero
  // virtual time and still complete.)
  options.journal.task_deadline_ms = 1;
  options.journal.quarantine_after = 2;
  Result<chaos::SupervisedChaosResult> supervised =
      chaos::run_chaos_supervised(config, options);
  ASSERT_TRUE(supervised.ok());
  EXPECT_GT(supervised->supervisor.quarantined, 0u);
  EXPECT_EQ(supervised->supervisor.quarantined + supervised->supervisor.completed,
            supervised->supervisor.tasks.size());
  std::size_t timed_out_calls = 0;
  for (const chaos::ChaosServerResult& server : supervised->chaos.servers) {
    for (const chaos::ChaosCell& cell : server.cells) {
      timed_out_calls += cell.count(chaos::ChaosOutcome::kTimedOut);
    }
  }
  EXPECT_GT(timed_out_calls, 0u);
  // The new outcome reaches every chaos report surface.
  EXPECT_NE(chaos::chaos_csv(supervised->chaos).find(",timed_out,"), std::string::npos);
  EXPECT_NE(chaos::format_chaos(supervised->chaos).find("timed-out"), std::string::npos);
}

}  // namespace
}  // namespace wsx
