// obs_test — units for the wsx::obs metric registry and span tracer:
// counter/gauge/histogram semantics, JSON export validity and stable
// ordering, the deterministic-export contract, null-sink no-ops, and the
// canonical (sorted, renumbered) span-tree export.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx::obs {
namespace {

TEST(Clock, FixedClockIsFrozen) {
  const FixedClock frozen(42);
  EXPECT_EQ(frozen.now_us(), 42u);
  EXPECT_EQ(frozen.now_us(), 42u);
  EXPECT_EQ(FixedClock().now_us(), 0u);
}

TEST(Clock, SteadyClockAdvances) {
  const std::uint64_t first = steady_clock().now_us();
  const std::uint64_t second = steady_clock().now_us();
  EXPECT_LE(first, second);
}

TEST(Metrics, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Metrics, GaugeSetAndHighWater) {
  Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.set(3);  // last write wins, lower or not
  EXPECT_EQ(gauge.value(), 3);
}

TEST(Metrics, HistogramTracksCountSumExtremes) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0u);
  histogram.observe(50);       // first bucket (<= 100us)
  histogram.observe(500);      // second bucket
  histogram.observe(2000000);  // sixth bucket (<= 5s)
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 2000550u);
  EXPECT_EQ(histogram.min(), 50u);
  EXPECT_EQ(histogram.max(), 2000000u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(5), 1u);
}

TEST(Metrics, HistogramOverflowLandsInLastBucket) {
  Histogram histogram;
  histogram.observe(Histogram::kBounds[Histogram::kBucketCount - 2] + 1);
  EXPECT_EQ(histogram.bucket(Histogram::kBucketCount - 1), 1u);
}

TEST(Registry, LookupCreatesAndReferencesAreStable) {
  Registry registry;
  Counter& counter = registry.counter("a.counter");
  counter.add(3);
  EXPECT_EQ(registry.counter("a.counter").value(), 3u);
  EXPECT_EQ(&registry.counter("a.counter"), &counter);
}

TEST(Registry, ExportIsValidJsonWithSortedNames) {
  Registry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("m.gauge").set(5);
  registry.histogram("h.hist").observe(10);
  const std::string text = registry.to_json();
  const Result<json::Value> parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const json::Value* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members().size(), 2u);
  EXPECT_EQ(counters->members()[0].first, "a.first");
  EXPECT_EQ(counters->members()[1].first, "z.last");
  const json::Value* hist = parsed->find("histograms")->find("h.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_EQ(hist->find("buckets")->items().size(), Histogram::kBucketCount);
}

TEST(Registry, DeterministicExportDropsGaugesAndDurations) {
  Registry registry;
  registry.counter("c").add(4);
  registry.gauge("g").set(9);
  registry.histogram("h").observe(123);
  const std::string text = registry.to_json(Export::kDeterministic);
  const Result<json::Value> parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->find("gauges"), nullptr);
  const json::Value* hist = parsed->find("histograms")->find("h");
  ASSERT_NE(hist, nullptr);
  // Observation counts are deterministic; the measured durations are not.
  EXPECT_NE(hist->find("count"), nullptr);
  EXPECT_EQ(hist->find("min_us"), nullptr);
  EXPECT_EQ(hist->find("max_us"), nullptr);
  EXPECT_EQ(hist->find("buckets"), nullptr);
}

TEST(Registry, ScopedTimerOnFixedClockRecordsZero) {
  const FixedClock frozen(1000);
  Registry registry(&frozen);
  { ScopedTimer timer = registry.timer("t"); }
  EXPECT_EQ(registry.histogram("t").count(), 1u);
  EXPECT_EQ(registry.histogram("t").sum(), 0u);
}

TEST(Registry, ScopedTimerStopRecordsOnce) {
  Registry registry;
  ScopedTimer timer = registry.timer("t");
  timer.stop();
  timer.stop();  // idempotent
  EXPECT_EQ(registry.histogram("t").count(), 1u);
}

TEST(Registry, NullSafeHelpersNoOpOnNull) {
  add(nullptr, "anything", 5);        // must not crash
  { ScopedTimer t = timer(nullptr, "anything"); }
  Registry registry;
  add(&registry, "c", 2);
  EXPECT_EQ(registry.counter("c").value(), 2u);
}

TEST(Registry, ConcurrentAddsAreLossless) {
  Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) add(&registry, "shared");
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared").value(), 4000u);
}

TEST(Registry, SummaryListsEveryMetric) {
  Registry registry;
  registry.counter("hits").add(2);
  registry.gauge("depth").set(1);
  registry.histogram("lat").observe(5);
  const std::string summary = registry.summary();
  EXPECT_NE(summary.find("hits"), std::string::npos);
  EXPECT_NE(summary.find("depth"), std::string::npos);
  EXPECT_NE(summary.find("lat"), std::string::npos);
}

TEST(Trace, SpanLifecycleAndAttributes) {
  Tracer tracer;
  {
    Span root(&tracer, "run");
    Span child(&tracer, "phase:x", root);
    child.annotate("items", std::size_t{3});
  }
  const std::vector<SpanData> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].ended);
  EXPECT_TRUE(spans[1].ended);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  ASSERT_EQ(spans[1].attributes.size(), 1u);
  EXPECT_EQ(spans[1].attributes[0].first, "items");
  EXPECT_EQ(spans[1].attributes[0].second, "3");
}

TEST(Trace, NullTracerSpansAreInert) {
  Span span(nullptr, "nothing");
  span.annotate("k", "v");
  span.end();  // must not crash
  EXPECT_EQ(span.id(), kNoSpan);
}

TEST(Trace, MovedFromSpanDoesNotDoubleEnd) {
  Tracer tracer;
  {
    Span a(&tracer, "a");
    Span b = std::move(a);
    // `a` is inert now; only `b` ends the span.
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_TRUE(tracer.spans()[0].ended);
}

TEST(Trace, JsonlLinesAreValidJson) {
  Tracer tracer;
  Span root(&tracer, "run");
  Span child(&tracer, "child \"quoted\"\n", root);
  child.annotate("key", "va\"lue");
  child.end();
  root.end();
  std::istringstream lines(tracer.to_jsonl());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const Result<json::Value> parsed = json::parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message << " in: " << line;
    EXPECT_NE(parsed->find("id"), nullptr);
    EXPECT_NE(parsed->find("parent"), nullptr);
    EXPECT_NE(parsed->find("name"), nullptr);
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(Trace, CanonicalExportSortsSiblingsAndRenumbers) {
  // Record children out of order; the export must sort them by name and
  // renumber ids in canonical DFS order regardless of recording order.
  Tracer tracer;
  const SpanId root = tracer.begin_span("run");
  const SpanId late = tracer.begin_span("z-phase", root);
  const SpanId early = tracer.begin_span("a-phase", root);
  const SpanId leaf = tracer.begin_span("leaf", early);
  tracer.end_span(leaf);
  tracer.end_span(early);
  tracer.end_span(late);
  tracer.end_span(root);

  EXPECT_EQ(tracer.shape(), "run\n.a-phase\n..leaf\n.z-phase\n");

  std::istringstream lines(tracer.to_jsonl());
  std::string line;
  std::vector<std::string> names;
  std::vector<double> ids;
  while (std::getline(lines, line)) {
    const Result<json::Value> parsed = json::parse(line);
    ASSERT_TRUE(parsed.ok());
    names.push_back(parsed->find("name")->as_string());
    ids.push_back(parsed->find("id")->as_number());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"run", "a-phase", "leaf", "z-phase"}));
  EXPECT_EQ(ids, (std::vector<double>{1, 2, 3, 4}));
}

TEST(Trace, ShapeIsIdenticalForAnyRecordingOrder) {
  const auto record = [](const std::vector<std::string>& order) {
    Tracer tracer;
    const SpanId root = tracer.begin_span("run");
    for (const std::string& name : order) {
      tracer.end_span(tracer.begin_span(name, root));
    }
    tracer.end_span(root);
    return tracer.shape();
  };
  EXPECT_EQ(record({"b", "a", "c"}), record({"c", "b", "a"}));
}

TEST(Trace, FixedClockJsonlIsByteStableAcrossRuns) {
  const auto run = [] {
    const FixedClock frozen;
    Tracer tracer(&frozen);
    const SpanId root = tracer.begin_span("run");
    tracer.annotate(root, "k", "v");
    tracer.end_span(tracer.begin_span("child", root));
    tracer.end_span(root);
    return tracer.to_jsonl();
  };
  EXPECT_EQ(run(), run());
}

TEST(Trace, SummaryIndentsByDepth) {
  Tracer tracer;
  const SpanId root = tracer.begin_span("run");
  tracer.end_span(tracer.begin_span("phase:deploy", root));
  tracer.end_span(root);
  const std::string summary = tracer.summary();
  EXPECT_NE(summary.find("run"), std::string::npos);
  EXPECT_NE(summary.find("  phase:deploy"), std::string::npos);
}

TEST(Trace, ConcurrentSpanRecordingIsSafe) {
  Tracer tracer;
  const SpanId root = tracer.begin_span("run");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, root, t] {
      for (int i = 0; i < 100; ++i) {
        Span span(&tracer, "w" + std::to_string(t), root);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  tracer.end_span(root);
  EXPECT_EQ(tracer.spans().size(), 401u);
  // Ids must be unique even under contention.
  std::set<SpanId> ids;
  for (const SpanData& span : tracer.spans()) ids.insert(span.id);
  EXPECT_EQ(ids.size(), 401u);
}

}  // namespace
}  // namespace wsx::obs
