// Concurrency-facing tests for the predict corpus pass: byte-identical
// reports across worker counts, supervised-path equivalence, and
// interrupt/resume through the "predict-corpus" journal. These run in the
// wsx_concurrency_tests binary so the TSan CI job exercises the parallel
// slice merge and the supervisor's worker pool.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/predict.hpp"
#include "analysis/supervised_predict.hpp"
#include "resilience/journal.hpp"

namespace wsx::analysis::predict {
namespace {

PredictOptions tiny_options(bool join) {
  PredictOptions options;
  catalog::JavaCatalogSpec java;
  java.plain_beans = 3;
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
  dotnet.plain_types = 3;
  dotnet.dataset_plain = 1;
  dotnet.dataset_duplicated = 1;
  dotnet.deep_nesting_clean = 1;
  dotnet.deep_nesting_pathological = 1;
  dotnet.non_serializable = 1;
  options.dotnet_spec = dotnet;
  options.join_study = join;
  return options;
}

/// The full report content, byte-comparable: every per-service record plus
/// the rendered report (which covers the scores when joined).
std::string report_bytes(const PredictReport& report) {
  std::string out;
  for (const ServicePredictionRecord& record : report.services) {
    out += record_json(record);
    out += '\n';
  }
  out += format_predict_report(report);
  return out;
}

struct ScratchJournal {
  std::string path;
  explicit ScratchJournal(const std::string& name)
      : path(testing::TempDir() + "wsx_predict_" + name + ".journal") {
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

TEST(PredictCorpusConcurrency, ByteIdenticalAcrossWorkerCounts) {
  PredictOptions serial = tiny_options(/*join=*/true);
  serial.jobs = 1;
  PredictOptions parallel = tiny_options(/*join=*/true);
  parallel.jobs = 8;

  const PredictReport a = predict_corpus(serial);
  const PredictReport b = predict_corpus(parallel);
  ASSERT_EQ(a.services.size(), b.services.size());
  EXPECT_EQ(report_bytes(a), report_bytes(b));
  EXPECT_EQ(a.overall.exact_matches, b.overall.exact_matches);
}

TEST(PredictCorpusConcurrency, ConfigFingerprintRoundTrips) {
  PredictOptions options = tiny_options(/*join=*/true);
  options.shape = frameworks::ServiceShape::kCrud;
  const std::string json = predict_config_json(options);
  Result<PredictOptions> parsed = predict_config_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(predict_config_json(*parsed), json);
  EXPECT_EQ(parsed->shape, frameworks::ServiceShape::kCrud);
  EXPECT_TRUE(parsed->join_study);
  EXPECT_FALSE(predict_config_from_json("{}").ok());
  EXPECT_FALSE(predict_config_from_json("nope").ok());
}

TEST(PredictCorpusConcurrency, SupervisedFullCoverageMatchesStraightRun) {
  const PredictOptions options = tiny_options(/*join=*/true);
  const PredictReport straight = predict_corpus(options);
  Result<SupervisedPredictResult> supervised = predict_corpus_supervised(options, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(report_bytes(supervised->report), report_bytes(straight));
  EXPECT_EQ(supervised->supervisor.completed, supervised->supervisor.tasks.size());
  EXPECT_FALSE(supervised->supervisor.degraded);
}

TEST(PredictCorpusConcurrency, InterruptedRunResumesByteIdentically) {
  PredictOptions options = tiny_options(/*join=*/false);
  options.jobs = 2;
  const std::string want = report_bytes(predict_corpus(options));

  for (const std::size_t resume_jobs : {std::size_t{1}, std::size_t{8}}) {
    ScratchJournal scratch("j" + std::to_string(resume_jobs));
    resilience::Supervision interrupted;
    interrupted.journal.checkpoint_every = 3;
    interrupted.checkpoint_path = scratch.path;
    interrupted.trip_after_tasks = 5;
    Result<SupervisedPredictResult> tripped = predict_corpus_supervised(options, interrupted);
    ASSERT_TRUE(tripped.ok()) << tripped.error().message;
    ASSERT_TRUE(tripped->supervisor.tripped);
    EXPECT_NE(report_bytes(tripped->report), want);  // partial fold ≠ full report

    Result<resilience::Journal> journal = resilience::Journal::parse(scratch.read());
    ASSERT_TRUE(journal.ok()) << journal.error().message;
    EXPECT_EQ(journal->campaign, "predict-corpus");
    Result<PredictOptions> rederived = predict_config_from_json(journal->config_json);
    ASSERT_TRUE(rederived.ok()) << rederived.error().message;
    rederived->jobs = resume_jobs;

    resilience::Supervision resumed;
    resumed.journal.checkpoint_every = 3;
    resumed.checkpoint_path = scratch.path;
    resumed.resume = &journal.value();
    Result<SupervisedPredictResult> finished = predict_corpus_supervised(*rederived, resumed);
    ASSERT_TRUE(finished.ok()) << finished.error().message;
    EXPECT_FALSE(finished->supervisor.tripped);
    EXPECT_GT(finished->supervisor.resumed, 0u);
    EXPECT_EQ(report_bytes(finished->report), want) << "resume_jobs=" << resume_jobs;
  }
}

}  // namespace
}  // namespace wsx::analysis::predict
