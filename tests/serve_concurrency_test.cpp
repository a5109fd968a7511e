// Concurrency-facing tests for the serve daemon, run in the
// wsx_concurrency_tests binary so the TSan CI job covers them: mixed
// traffic hammering one daemon from many threads, budget exhaustion with
// queries in flight (the budget must admit exactly its quota, never a
// race-y few more), the half-open breaker probe racing new lint
// admissions, and the stats control plane staying available under load.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "analysis/corpus.hpp"
#include "analysis/predict.hpp"
#include "frameworks/registry.hpp"
#include "serve/daemon.hpp"
#include "serve/oracle.hpp"

namespace wsx::serve {
namespace {

analysis::predict::PredictOptions tiny_predict() {
  analysis::predict::PredictOptions options;
  catalog::JavaCatalogSpec java;
  java.plain_beans = 3;
  java.throwable_clean = 1;
  java.raw_generic_beans = 1;
  java.interfaces = 1;
  options.java_spec = java;
  catalog::DotNetCatalogSpec dotnet;
  dotnet.plain_types = 2;
  dotnet.dataset_plain = 1;
  options.dotnet_spec = dotnet;
  options.join_study = false;
  options.jobs = 2;
  return options;
}

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

Request verdict_request(const Oracle& oracle, std::size_t service_index = 0) {
  Request request;
  request.kind = QueryKind::kVerdict;
  request.client = oracle.clients().front();
  const auto& record = oracle.records()[service_index % oracle.records().size()];
  request.service = record.server + "/" + record.service;
  return request;
}

TEST(ServeConcurrency, MixedTrafficCountsStayConsistent) {
  Daemon daemon(shared_oracle(), DaemonSettings{});
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 50;
  std::atomic<std::size_t> ok{0}, shed{0}, deadline{0}, not_found{0}, stats_ok{0},
      other{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Request request = verdict_request(daemon.oracle(), t * kPerThread + i);
        switch (i % 4) {
          case 0:
            break;
          case 1:
            request.kind = QueryKind::kExplain;
            break;
          case 2:
            request.kind = QueryKind::kSubstitute;
            break;
          default:
            request.kind = QueryKind::kStats;
            break;
        }
        // Ties across threads are deliberate: admission must tolerate
        // concurrent arrivals at one instant.
        const Response response = daemon.handle(request, 1 + i);
        if (request.kind == QueryKind::kStats) {
          EXPECT_EQ(response.status, StatusCode::kOk);
          ++stats_ok;
          continue;
        }
        switch (response.status) {
          case StatusCode::kOk:
            ++ok;
            break;
          case StatusCode::kShedded:
            ++shed;
            break;
          case StatusCode::kDeadlineExceeded:
            ++deadline;
            break;
          case StatusCode::kNotFound:  // admitted, then missed the cache
            ++not_found;
            break;
          default:
            ++other;
            break;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(stats_ok.load(), kThreads * (kPerThread / 4));
  const AdmissionSnapshot snapshot = daemon.admission().snapshot();
  EXPECT_EQ(snapshot.admitted, ok.load() + not_found.load());
  EXPECT_EQ(snapshot.shed, shed.load());
  EXPECT_EQ(snapshot.deadline_rejected, deadline.load());
  EXPECT_EQ(ok.load() + shed.load() + deadline.load() + not_found.load(),
            kThreads * kPerThread - stats_ok.load());
}

TEST(ServeConcurrency, BudgetExhaustionWithQueriesInFlightAdmitsExactlyBudget) {
  DaemonSettings settings;
  settings.admission.budget_queries = 10;
  Daemon daemon(shared_oracle(), settings);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 25;
  std::atomic<std::size_t> ok{0}, shed{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const Response response =
            daemon.handle(verdict_request(daemon.oracle()), 1);
        if (response.status == StatusCode::kOk) ++ok;
        if (response.status == StatusCode::kShedded) ++shed;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // The budget is a hard quota even with all admissions racing: exactly 10
  // queries get through, every other one is shed, none are lost.
  EXPECT_EQ(ok.load(), 10u);
  EXPECT_EQ(shed.load(), kThreads * kPerThread - 10u);
  EXPECT_EQ(daemon.admission().snapshot().admitted, 10u);
}

TEST(ServeConcurrency, HalfOpenProbeRacesNewLintAdmissions) {
  DaemonSettings settings;
  settings.breaker.failure_threshold = 1;
  settings.breaker.open_ms = 10;
  Daemon daemon(shared_oracle(), settings);

  // Trip the breaker with one poison upload.
  Request poison;
  poison.kind = QueryKind::kLint;
  poison.body = "<defin";
  const Response refused = daemon.handle(poison, 1);
  EXPECT_NE(refused.status, StatusCode::kOk);
  ASSERT_EQ(daemon.lint_snapshot().breaker_trips, 1u);

  // Every thread arrives exactly when the breaker turns half-open. The
  // lint mutex guarantees a single probe runs; it succeeds, the breaker
  // closes, and the racing requests all parse normally — no second trip,
  // no torn breaker state.
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> ok{0}, refused_count{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      Request lint;
      lint.kind = QueryKind::kLint;
      lint.body = valid_wsdl_body();
      const Response response = daemon.handle(lint, 12);
      if (response.status == StatusCode::kOk) {
        ++ok;
      } else {
        ++refused_count;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(refused_count.load(), 0u);
  EXPECT_EQ(daemon.lint_snapshot().breaker_trips, 1u);
}

TEST(ServeConcurrency, StatsStaysAvailableWhileHammered) {
  DaemonSettings settings;
  settings.admission.budget_queries = 5;  // force shedding almost immediately
  Daemon daemon(shared_oracle(), settings);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> stats_failures{0};
  std::thread observer([&] {
    Request stats;
    stats.kind = QueryKind::kStats;
    while (!done.load()) {
      if (daemon.handle(stats, 1).status != StatusCode::kOk) ++stats_failures;
    }
  });
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = 0; i < 200; ++i) {
        (void)daemon.handle(verdict_request(daemon.oracle(), i), 1 + i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  done = true;
  observer.join();
  EXPECT_EQ(stats_failures.load(), 0u);
  EXPECT_EQ(daemon.admission().snapshot().admitted, 5u);
}

}  // namespace
}  // namespace wsx::serve
