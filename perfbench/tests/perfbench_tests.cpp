// The benchmark's own tests: percentile selection, failure accounting, the
// environment arithmetic, span self time, and a tiny-scale smoke run of
// every workload (untraced and traced) that checks each digest.
#include <gtest/gtest.h>

#include <thread>

#include "chaos/campaign.hpp"
#include "interop/study.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));  // unsorted
  return values;
}

TEST(Percentile, NearestRankSelection) {
  const Percentile p50 = select_percentile(one_to(100), 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_EQ(select_percentile(one_to(101), 0.5).value, 51.0);
  EXPECT_EQ(select_percentile(one_to(4), 1.0).value, 4.0);
  EXPECT_EQ(median(one_to(3)), 2.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  const Percentile at_1000 = select_percentile(one_to(1000), 0.99);
  EXPECT_EQ(at_1000.value, 990.0);
  EXPECT_EQ(at_1000.beyond, 10u);
  EXPECT_TRUE(at_1000.supported);

  const Percentile at_999 = select_percentile(one_to(999), 0.99);
  EXPECT_EQ(at_999.value, 990.0);  // rank ceil(989.01) = 990
  EXPECT_EQ(at_999.beyond, 9u);
  EXPECT_EQ(at_999.samples, 999u);
  EXPECT_FALSE(at_999.supported);

  const Percentile few = select_percentile(one_to(20), 0.99);
  EXPECT_EQ(few.value, 20.0);
  EXPECT_EQ(few.beyond, 0u);
  EXPECT_FALSE(few.supported);
}

TEST(Percentile, EmptySampleIsUnsupportedZero) {
  const Percentile empty = select_percentile({}, 0.99);
  EXPECT_EQ(empty.value, 0.0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.supported);
  EXPECT_EQ(median({}), 0.0);
}

TEST(ErrorRate, ShedNotFoundAndMismatchAllFail) {
  using wsx::serve::Response;
  using wsx::serve::StatusCode;
  Tally tally;
  const auto count = [&](const Response& response, std::string_view reference) {
    const std::string failure = check_response(response, reference);
    if (failure.empty()) {
      tally.pass();
    } else {
      tally.fail(failure);
    }
  };
  count(Response{StatusCode::kOk, "{\"verdict\":\"ok\"}", "", 1}, "{\"verdict\":\"ok\"}");
  count(Response{StatusCode::kShedded, "", "queue full: load shed", 0}, "{}");
  count(Response{StatusCode::kDeadlineExceeded, "", "", 0}, "{}");
  count(Response{StatusCode::kNotFound, "", "unknown service", 0}, "{}");
  count(Response{StatusCode::kOk, "{\"verdict\":\"error\"}", "", 1}, "{\"verdict\":\"ok\"}");

  EXPECT_EQ(tally.attempted, 5u);
  EXPECT_EQ(tally.failed, 4u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.8);
  EXPECT_EQ(tally.failures.at("status:shedded"), 1u);
  EXPECT_EQ(tally.failures.at("status:deadline-exceeded"), 1u);
  EXPECT_EQ(tally.failures.at("status:not-found"), 1u);
  EXPECT_EQ(tally.failures.at("body-mismatch"), 1u);

  Tally merged;
  merged.merge(tally);
  merged.merge(tally);
  EXPECT_EQ(merged.attempted, 10u);
  EXPECT_EQ(merged.failures.at("body-mismatch"), 2u);
  EXPECT_EQ(Tally{}.error_rate(), 0.0);
}

TEST(Environment, QuotaCapsTheAffinityMask) {
  EXPECT_EQ(effective_cpus(4, 0.0), 4u);   // no quota
  EXPECT_EQ(effective_cpus(4, 2.0), 2u);
  EXPECT_EQ(effective_cpus(4, 1.5), 2u);   // a partial CPU still runs a worker
  EXPECT_EQ(effective_cpus(2, 8.0), 2u);   // the mask is the tighter limit
  EXPECT_EQ(effective_cpus(0, 0.0), 1u);
  EXPECT_GE(probe_environment().effective_cpus, 1u);
}

TEST(Result, LastLineHasExactlyTheResultKeys) {
  Tally tally;
  tally.pass();
  const std::string line = result_json(true, tally, {{"setup_s", 0.125, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}");
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  using trace::Span;
  // parent [0,100); children [10,40) and [30,60) overlap on two threads,
  // [90,120) sticks out of the parent: covered = 50 + 10 = 60.
  const std::vector<Span> spans = {
      {"parent", 1, 0, 0, 100, 0},     {"child", 2, 1, 10, 40, 0},
      {"child", 3, 1, 30, 60, 1},      {"child", 4, 1, 90, 120, 1},
      {"grandchild", 5, 2, 15, 25, 0},
  };
  const std::vector<double> self = trace::self_times_ns(spans);
  EXPECT_EQ(self[0], 40.0);
  EXPECT_EQ(self[1], 20.0);
  EXPECT_EQ(self[2], 30.0);
  const auto totals = trace::totals_by_name(spans);
  EXPECT_EQ(totals.at("child").count, 3u);
  EXPECT_EQ(totals.at("child").total_ns, 90.0);
}

TEST(Trace, ScopesNestOnAThreadAndTakeExplicitParentsAcrossThreads) {
  trace::drain();
  trace::set_enabled(true);
  trace::SpanId outer_id = 0;
  {
    trace::Scope outer("outer");
    outer_id = outer.id();
    { trace::Scope inner("inner"); }
    std::thread worker([&] { trace::Scope remote("remote", outer_id); });
    worker.join();
  }
  trace::set_enabled(false);
  { trace::Scope ignored("ignored"); }
  const std::vector<trace::Span> spans = trace::drain();
  ASSERT_EQ(spans.size(), 3u);
  for (const trace::Span& span : spans) {
    const trace::SpanId expected = std::string(span.name) == "outer" ? trace::kNoSpan : outer_id;
    EXPECT_EQ(span.parent, expected) << span.name;
  }
}

RunOptions tiny(bool trace) {
  RunOptions options;
  options.seed = 11;
  options.seconds = 1;
  options.trace = trace;
  options.scale_percent = 2;
  options.workers = 2;
  return options;
}

TEST(Smoke, StudyDigestsAgreeAcrossWorkersAndTheComposition) {
  wsx::interop::StudyConfig config;
  scale_catalogs(config.java_spec, config.dotnet_spec, 2);
  config.threads = 1;
  const std::string serial = study_digest(wsx::interop::run_study(config));
  config.threads = 3;
  EXPECT_EQ(study_digest(wsx::interop::run_study(config)), serial);
  std::size_t artifact_tests = 0;
  const wsx::interop::StudyResult composed = composed_study_pass(config, &artifact_tests);
  EXPECT_EQ(study_digest(composed), serial);
  EXPECT_GT(artifact_tests, 0u);
  EXPECT_LE(artifact_tests, composed.total_tests());
}

TEST(Smoke, ChaosDigestsAgreeAcrossWorkersAndTheComposition) {
  RunOptions options = tiny(false);
  const std::string serial = chaos_digest(wsx::chaos::run_chaos_study(chaos_config(options, 1)));
  EXPECT_EQ(chaos_digest(wsx::chaos::run_chaos_study(chaos_config(options, 3))), serial);
  EXPECT_EQ(chaos_digest(composed_chaos_pass(chaos_config(options, 3))), serial);
  options.seed = 12;  // the seed drives the fault plan
  EXPECT_NE(chaos_digest(wsx::chaos::run_chaos_study(chaos_config(options, 1))), serial);
}

void expect_clean(const RunResult& result, std::size_t metric_count) {
  EXPECT_TRUE(result.correct);
  EXPECT_GT(result.tally.attempted, 0u);
  EXPECT_EQ(result.tally.failed, 0u);
  for (const auto& [reason, count] : result.tally.failures) {
    ADD_FAILURE() << reason << ": " << count;
  }
  if (metric_count != 0) {
    EXPECT_EQ(result.metrics.size(), metric_count);
  }
  for (const Metric& metric : result.metrics) {
    if (metric.name == "setup_s" || metric.name == "throughput" ||
        metric.name == "latency_p50_us") {
      EXPECT_GT(metric.value, 0.0) << metric.name;
    }
  }
}

TEST(Smoke, EveryWorkloadRunsCleanAtTinyScale) {
  expect_clean(run_study_workload(tiny(false)), 5);
  expect_clean(run_chaos_workload(tiny(false)), 5);
  expect_clean(run_serve_query_workload(tiny(false)), 5);
  expect_clean(run_serve_lint_workload(tiny(false)), 5);
}

TEST(Smoke, EveryTracedRunReproducesItsDigests) {
  expect_clean(run_study_workload(tiny(true)), 0);
  expect_clean(run_chaos_workload(tiny(true)), 0);
  expect_clean(run_serve_query_workload(tiny(true)), 0);
  expect_clean(run_serve_lint_workload(tiny(true)), 0);
}

}  // namespace
