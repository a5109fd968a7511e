// Tests for the serve subsystem (src/serve/*): the framed wire protocol,
// admission-control edge cases (expired deadlines, zero-capacity queues,
// budget exhaustion), the retry-then-quarantine lint path with its circuit
// breaker, warm-restart byte identity through the verdict-cache journal,
// and the optional localhost TCP transport.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/corpus.hpp"
#include "analysis/predict.hpp"
#include "frameworks/registry.hpp"
#include "serve/admission.hpp"
#include "serve/daemon.hpp"
#include "serve/oracle.hpp"
#include "serve/protocol.hpp"
#include "serve/tcp.hpp"

namespace wsx::serve {
namespace {

analysis::predict::PredictOptions tiny_predict() {
  analysis::predict::PredictOptions options;
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
  options.join_study = false;
  options.jobs = 2;
  return options;
}

/// One cold oracle over the tiny corpus, loaded once and copied into each
/// daemon under test (Oracle is immutable after load, so copies are safe).
const Oracle& shared_oracle() {
  static const Oracle* oracle = [] {
    OracleOptions options;
    options.predict = tiny_predict();
    Result<Oracle> loaded = Oracle::load(options);
    if (!loaded.ok()) {
      ADD_FAILURE() << "oracle load failed: " << loaded.error().message;
      std::abort();
    }
    return new Oracle(std::move(loaded.value()));
  }();
  return *oracle;
}

/// A WSDL document the lint path parses cleanly: the first generated
/// description of the tiny corpus.
const std::string& valid_wsdl_body() {
  static const std::string* body = [] {
    const analysis::predict::PredictOptions options = tiny_predict();
    const frameworks::Corpus corpus(options.java_spec, options.dotnet_spec, options.shape);
    if (corpus.plan.tasks.empty()) {
      ADD_FAILURE() << "tiny corpus produced no tasks";
      std::abort();
    }
    return new std::string(corpus.deploy(0)->wsdl_text);
  }();
  return *body;
}

struct ScratchJournal {
  std::string path;
  explicit ScratchJournal(const std::string& name)
      : path(testing::TempDir() + "wsx_serve_" + name + ".journal") {
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

Request verdict_request(const Oracle& oracle, std::size_t service_index = 0) {
  Request request;
  request.kind = QueryKind::kVerdict;
  request.client = oracle.clients().front();
  const auto& record = oracle.records()[service_index % oracle.records().size()];
  request.service = record.server + "/" + record.service;
  return request;
}

// ----------------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTrip) {
  Request request;
  request.kind = QueryKind::kSubstitute;
  request.client = "gSOAP Toolkit 2.8.16";
  request.service = "Metro 2.3/EchoFoo";
  request.top = 7;
  Result<Request> decoded = decode_request(encode_request(request));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->kind, request.kind);
  EXPECT_EQ(decoded->client, request.client);
  EXPECT_EQ(decoded->service, request.service);
  EXPECT_EQ(decoded->top, request.top);

  Request lint;
  lint.kind = QueryKind::kLint;
  lint.body = "<definitions>\nline two\n\"quoted\"</definitions>";
  Result<Request> lint_decoded = decode_request(encode_request(lint));
  ASSERT_TRUE(lint_decoded.ok());
  EXPECT_EQ(lint_decoded->kind, QueryKind::kLint);
  EXPECT_EQ(lint_decoded->body, lint.body);

  EXPECT_FALSE(decode_request("not json").ok());
  EXPECT_FALSE(decode_request("{\"query\":\"warp\"}").ok());
}

TEST(ServeProtocol, ResponseRoundTrip) {
  Response response;
  response.status = StatusCode::kShedded;
  response.reason = "queue full: load shed";
  response.latency_ms = 0;
  Result<Response> decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->status, StatusCode::kShedded);
  EXPECT_EQ(decoded->reason, response.reason);

  Response ok;
  ok.status = StatusCode::kOk;
  ok.body = "{\"verdict\":\"ok\"}";
  ok.latency_ms = 12;
  Result<Response> ok_decoded = decode_response(encode_response(ok));
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_EQ(ok_decoded->body, ok.body);
  EXPECT_EQ(ok_decoded->latency_ms, 12u);
}

TEST(ServeProtocol, CountsMustBeExactIntegers) {
  // Each of these used to reach a double-to-integer cast: 1e300 and 2^64
  // are outside size_t (undefined behaviour, decoded as 0 here) and 2.5
  // was truncated to 2.
  for (const char* top : {"1e300", "18446744073709551616", "2.5", "0", "-1"}) {
    const std::string payload =
        std::string("{\"query\":\"substitute\",\"service\":\"s\",\"top\":") + top + "}";
    Result<Request> decoded = decode_request(payload);
    ASSERT_FALSE(decoded.ok()) << "top " << top << " decoded as " << decoded->top;
    EXPECT_EQ(decoded.error().code, "serve.bad-request") << top;
  }
  Result<Request> seven = decode_request("{\"query\":\"substitute\",\"service\":\"s\",\"top\":7}");
  ASSERT_TRUE(seven.ok()) << seven.error().message;
  EXPECT_EQ(seven->top, 7u);

  Result<Response> latency = decode_response("{\"status\":\"ok\",\"latency_ms\":1e30}");
  ASSERT_FALSE(latency.ok());
  EXPECT_EQ(latency.error().code, "serve.bad-response");
}

TEST(ServeProtocol, FrameReaderReassemblesByteWiseFeeds) {
  const std::string stream = frame("{\"a\":1}") + frame("{\"b\":\"two\"}");
  FrameReader reader;
  std::vector<std::string> payloads;
  for (const char byte : stream) {
    reader.feed(std::string_view(&byte, 1));
    for (;;) {
      std::string payload;
      Result<bool> next = reader.next(payload);
      ASSERT_TRUE(next.ok()) << next.error().message;
      if (!next.value()) break;
      payloads.push_back(payload);
    }
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "{\"a\":1}");
  EXPECT_EQ(payloads[1], "{\"b\":\"two\"}");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(ServeProtocol, FrameReaderRejectsMalformedHeaders) {
  FrameReader missing_hash;
  missing_hash.feed("7\n{\"a\":1}\n");
  std::string payload;
  EXPECT_FALSE(missing_hash.next(payload).ok());

  FrameReader bad_length;
  bad_length.feed("#seven\n{\"a\":1}\n");
  EXPECT_FALSE(bad_length.next(payload).ok());

  FrameReader missing_terminator;
  missing_terminator.feed("#7\n{\"a\":1}X");
  EXPECT_FALSE(missing_terminator.next(payload).ok());

  // One byte over the 64 MiB limit is refused before any payload arrives...
  FrameReader oversized;
  oversized.feed("#67108865\n");
  Result<bool> refused = oversized.next(payload);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "serve.bad-frame");

  // ...while exactly the limit is a valid header that waits for its payload.
  FrameReader at_limit;
  at_limit.feed("#67108864\n");
  Result<bool> waiting = at_limit.next(payload);
  ASSERT_TRUE(waiting.ok());
  EXPECT_FALSE(waiting.value());
  EXPECT_EQ(at_limit.pending(), 10u);
}

// ---------------------------------------------------------------- admission

TEST(ServeAdmission, DeadlineUnmeetableAtArrivalIsRejectedUpFront) {
  AdmissionSettings settings;
  settings.lanes = 1;
  settings.verdict = ClassSpec{20, 10};  // cost alone overshoots the deadline
  AdmissionController admission(settings);
  const Admission rejected = admission.admit(QueryKind::kVerdict, 5);
  EXPECT_EQ(rejected.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.snapshot().deadline_rejected, 1u);
  EXPECT_EQ(admission.snapshot().admitted, 0u);
}

TEST(ServeAdmission, QueueWaitPushesPastDeadline) {
  AdmissionSettings settings;
  settings.lanes = 1;
  settings.verdict = ClassSpec{10, 15};
  AdmissionController admission(settings);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 0).status, StatusCode::kOk);
  // The lane is busy until t=10: wait 10 + cost 10 = 20 > deadline 15.
  const Admission late = admission.admit(QueryKind::kVerdict, 0);
  EXPECT_EQ(late.status, StatusCode::kDeadlineExceeded);
  // Once the lane drains, the class is admittable again.
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 10).status, StatusCode::kOk);
}

TEST(ServeAdmission, ZeroCapacityQueueShedsWheneverNoLaneIsFree) {
  AdmissionSettings settings;
  settings.lanes = 1;
  settings.queue_capacity = 0;
  settings.verdict = ClassSpec{10, 0};  // no deadline: shedding is the queue's call
  AdmissionController admission(settings);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 0).status, StatusCode::kOk);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 0).status, StatusCode::kShedded);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 9).status, StatusCode::kShedded);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 10).status, StatusCode::kOk);
  EXPECT_EQ(admission.snapshot().shed, 2u);
}

TEST(ServeAdmission, ShedWinsOverDeadlineWhenBothApply) {
  AdmissionSettings settings;
  settings.lanes = 1;
  settings.queue_capacity = 0;
  settings.verdict = ClassSpec{10, 10};
  AdmissionController admission(settings);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 0).status, StatusCode::kOk);
  // The second arrival both misses its deadline (wait 10 + cost 10 > 10)
  // and finds the queue full; the full queue must be the reported cause so
  // the shed and deadline counters stay distinguishable.
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 0).status, StatusCode::kShedded);
  EXPECT_EQ(admission.snapshot().deadline_rejected, 0u);
}

TEST(ServeAdmission, QueryBudgetExhaustionSheds) {
  AdmissionSettings settings;
  settings.budget_queries = 2;
  AdmissionController admission(settings);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 1).status, StatusCode::kOk);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 2).status, StatusCode::kOk);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 3).status, StatusCode::kShedded);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 1000).status, StatusCode::kShedded);
  EXPECT_EQ(admission.snapshot().admitted, 2u);
}

TEST(ServeAdmission, CostBudgetExhaustionSheds) {
  AdmissionSettings settings;
  settings.verdict = ClassSpec{10, 0};
  settings.budget_cost_ms = 25;
  AdmissionController admission(settings);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 1).status, StatusCode::kOk);
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 20).status, StatusCode::kOk);
  // 20 ms spent; another 10 ms query would overshoot the 25 ms budget.
  EXPECT_EQ(admission.admit(QueryKind::kVerdict, 40).status, StatusCode::kShedded);
}

// ------------------------------------------------------------------- daemon

TEST(ServeDaemon, AnswersPrecomputedQueries) {
  Daemon daemon(shared_oracle(), DaemonSettings{});
  std::uint64_t now = 0;

  Request verdict = verdict_request(daemon.oracle());
  Response answered = daemon.handle(verdict, ++now);
  EXPECT_EQ(answered.status, StatusCode::kOk);
  EXPECT_NE(answered.body.find("\"verdict\""), std::string::npos);

  Request explain = verdict;
  explain.kind = QueryKind::kExplain;
  answered = daemon.handle(explain, ++now);
  EXPECT_EQ(answered.status, StatusCode::kOk);
  EXPECT_NE(answered.body.find("\"mechanisms\""), std::string::npos);

  Request substitute = verdict;
  substitute.kind = QueryKind::kSubstitute;
  substitute.top = 3;
  answered = daemon.handle(substitute, ++now);
  EXPECT_EQ(answered.status, StatusCode::kOk);
  EXPECT_NE(answered.body.find("\"candidates\""), std::string::npos);

  Request unknown = verdict;
  unknown.service = "NoSuchServer/NoSuchService";
  answered = daemon.handle(unknown, ++now);
  EXPECT_EQ(answered.status, StatusCode::kNotFound);
}

TEST(ServeDaemon, StatsBypassesAdmissionEvenWhenShedding) {
  DaemonSettings settings;
  settings.admission.budget_queries = 1;
  Daemon daemon(shared_oracle(), settings);

  EXPECT_EQ(daemon.handle(verdict_request(daemon.oracle()), 1).status, StatusCode::kOk);
  EXPECT_EQ(daemon.handle(verdict_request(daemon.oracle()), 2).status,
            StatusCode::kShedded);

  Request stats;
  stats.kind = QueryKind::kStats;
  const Response answered = daemon.handle(stats, 3);
  EXPECT_EQ(answered.status, StatusCode::kOk);
  EXPECT_NE(answered.body.find("\"shed\":1"), std::string::npos);
  EXPECT_NE(answered.body.find("\"admitted\":1"), std::string::npos);
}

TEST(ServeDaemon, PoisonUploadRetriedQuarantinedAndBreakerCools) {
  DaemonSettings settings;
  settings.quarantine_after = 2;
  settings.breaker.failure_threshold = 2;
  settings.breaker.open_ms = 50;
  Daemon daemon(shared_oracle(), settings);

  Request lint;
  lint.kind = QueryKind::kLint;

  // Poison body #1 burns its two attempts inside one request and is parked.
  lint.body = "<definitions xmlns=\"";
  Response answered = daemon.handle(lint, 1);
  EXPECT_EQ(answered.status, StatusCode::kQuarantined);
  EXPECT_EQ(daemon.lint_snapshot().attempts, 2u);

  // A repeat of the same body is answered from quarantine in O(1).
  answered = daemon.handle(lint, 2);
  EXPECT_EQ(answered.status, StatusCode::kQuarantined);
  EXPECT_EQ(daemon.lint_snapshot().quarantined_hits, 1u);
  EXPECT_EQ(daemon.lint_snapshot().attempts, 2u);

  // Poison body #2 is the second consecutive failed request: breaker opens.
  lint.body = "not xml at all";
  answered = daemon.handle(lint, 3);
  EXPECT_EQ(answered.status, StatusCode::kQuarantined);
  EXPECT_EQ(daemon.lint_snapshot().breaker_trips, 1u);
  EXPECT_EQ(daemon.lint_snapshot().quarantined_bodies, 2u);

  // While open, even a clean upload is refused without parsing.
  lint.body = valid_wsdl_body();
  answered = daemon.handle(lint, 4);
  EXPECT_EQ(answered.status, StatusCode::kCircuitOpen);

  // After the cooldown the half-open probe succeeds and closes the breaker.
  answered = daemon.handle(lint, 60);
  EXPECT_EQ(answered.status, StatusCode::kOk);
  EXPECT_NE(answered.body.find("\"findings\""), std::string::npos);
  answered = daemon.handle(lint, 61);
  EXPECT_EQ(answered.status, StatusCode::kOk);
  EXPECT_EQ(daemon.lint_snapshot().breaker_trips, 1u);
}

// ------------------------------------------------------------- warm restart

TEST(ServeOracle, WarmRestartIsByteIdenticalToColdLoad) {
  ScratchJournal scratch("warm");
  const std::uint64_t cold_fingerprint = shared_oracle().fingerprint();

  // Crash drill: the first load trips partway through the precompute,
  // leaving a partial verdict-cache journal behind.
  OracleOptions tripped_options;
  tripped_options.predict = tiny_predict();
  tripped_options.supervision.checkpoint_path = scratch.path;
  // Blocks of 4, trip after 5: the tiny corpus fits inside one default
  // checkpoint block, so the drill needs a shorter cadence to fire at all.
  tripped_options.supervision.journal.checkpoint_every = 4;
  tripped_options.supervision.trip_after_tasks = 5;
  Result<Oracle> tripped = Oracle::load(tripped_options);
  ASSERT_TRUE(tripped.ok()) << tripped.error().message;
  ASSERT_TRUE(tripped->precompute().tripped);
  ASSERT_GT(tripped->precompute().executed, 0u);

  // Warm restart resumes the journal and finishes the precompute; the
  // resulting cache must be byte-identical to a cold one.
  Result<resilience::Journal> journal = resilience::Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  OracleOptions warm_options;
  warm_options.predict = tiny_predict();
  warm_options.supervision.checkpoint_path = scratch.path;
  warm_options.supervision.journal.checkpoint_every = 4;  // must match the journal header
  warm_options.supervision.resume = &journal.value();
  Result<Oracle> warm = Oracle::load(warm_options);
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_FALSE(warm->precompute().tripped);
  EXPECT_GT(warm->precompute().resumed, 0u);
  EXPECT_EQ(warm->fingerprint(), cold_fingerprint);

  // And the daemons built on both answer identically, stats included.
  Daemon cold_daemon(shared_oracle(), DaemonSettings{});
  Daemon warm_daemon(std::move(warm.value()), DaemonSettings{});
  const Request request = verdict_request(cold_daemon.oracle());
  EXPECT_EQ(encode_response(cold_daemon.handle(request, 1)),
            encode_response(warm_daemon.handle(request, 1)));
  EXPECT_EQ(cold_daemon.stats_body(2), warm_daemon.stats_body(2));
}

// ---------------------------------------------------------------------- tcp

TEST(ServeTcp, RoundTripOverLocalhost) {
  Result<TcpServer> server = TcpServer::listen(0);
  if (!server.ok()) {
    GTEST_SKIP() << "cannot bind localhost: " << server.error().message;
  }
  Daemon daemon(shared_oracle(), DaemonSettings{});
  std::uint64_t now = 0;
  std::thread serving(
      [&] { (void)server->serve(daemon, 1, now); });
  const Result<Response> answered =
      tcp_query(server->port(), verdict_request(daemon.oracle()));
  serving.join();
  ASSERT_TRUE(answered.ok()) << answered.error().message;
  EXPECT_EQ(answered->status, StatusCode::kOk);
  EXPECT_NE(answered->body.find("\"verdict\""), std::string::npos);
}

}  // namespace
}  // namespace wsx::serve
