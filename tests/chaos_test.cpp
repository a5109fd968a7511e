// Tests for the wire-fault chaos subsystem (src/chaos/*): the fault plan,
// the resilience policies, the circuit breaker, and the campaign's core
// guarantees — determinism across worker counts, zero-fault equivalence
// with the communication study, and emergent per-client profiles.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/fault.hpp"
#include "chaos/policy.hpp"
#include "chaos/wire.hpp"
#include "common/hash.hpp"
#include "interop/communication.hpp"
#include "test_helpers.hpp"

namespace wsx::chaos {
namespace {

// ---------------------------------------------------------------- fault plan

TEST(FaultPlan, ScheduleIsDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  const CallSchedule a = plan_call(plan, "Metro 2.3|EchoFoo|Zend|0");
  const CallSchedule b = plan_call(plan, "Metro 2.3|EchoFoo|Zend|0");
  EXPECT_EQ(a.faulted(), b.faulted());
  EXPECT_EQ(a.burst(), b.burst());
  EXPECT_EQ(a.salt(), b.salt());
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(a.fault_for_attempt(attempt), b.fault_for_attempt(attempt));
  }
}

TEST(FaultPlan, SeedChangesTheSchedule) {
  FaultPlan a;
  a.seed = 1;
  FaultPlan b;
  b.seed = 2;
  // Over many calls the two seeds must diverge somewhere.
  bool diverged = false;
  for (int i = 0; i < 50 && !diverged; ++i) {
    const std::string id = "s|svc" + std::to_string(i) + "|c|0";
    const CallSchedule sa = plan_call(a, id);
    const CallSchedule sb = plan_call(b, id);
    diverged = sa.faulted() != sb.faulted() ||
               sa.fault_for_attempt(0) != sb.fault_for_attempt(0);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlan, RateZeroMeansCleanWire) {
  FaultPlan plan;
  plan.rate_percent = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan_call(plan, "id" + std::to_string(i)).faulted());
  }
}

TEST(FaultPlan, RateHundredFaultsEveryCall) {
  FaultPlan plan;
  plan.rate_percent = 100;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(plan_call(plan, "id" + std::to_string(i)).faulted());
  }
}

TEST(FaultPlan, RespectsEnabledKinds) {
  FaultPlan plan;
  plan.rate_percent = 100;
  plan.kinds = {FaultKind::kHttp503};
  for (int i = 0; i < 20; ++i) {
    const CallSchedule schedule = plan_call(plan, "id" + std::to_string(i));
    EXPECT_EQ(schedule.fault_for_attempt(0), FaultKind::kHttp503);
  }
}

TEST(FaultPlan, BurstEndsAndLaterAttemptsAreClean) {
  FaultPlan plan;
  plan.rate_percent = 100;
  plan.max_burst = 2;
  const CallSchedule schedule = plan_call(plan, "some-call");
  ASSERT_TRUE(schedule.faulted());
  ASSERT_GE(schedule.burst(), 1u);
  ASSERT_LE(schedule.burst(), 2u);
  EXPECT_TRUE(schedule.fault_for_attempt(schedule.burst() - 1).has_value());
  EXPECT_FALSE(schedule.fault_for_attempt(schedule.burst()).has_value());
}

TEST(FaultPlan, SchedulesArePinned) {
  // Seeded campaigns replay from these values: the kind, burst and salt of
  // chain-shaped call ids ("scope|service|client|N") under three plans.
  const std::string a = "Metro 2.3|EchoDataSource|Apache CXF 2.7.6|";
  const std::string b =
      "JBossWS CXF 4.2.3 [strict]|EchoXMLGregorianCalendar|gSOAP Toolkit 2.8.16|";
  const std::string c = "WCF .NET 4.0.30319.17929 [shaded]|EchoDataTable|suds Python 0.4|";
  const std::string d = "Metro 2.3 [relaxed]|EchoTypedTrackerBuilder|Oracle Metro 2.3|";
  const std::string e = "JBossWS CXF 4.2.3|EchoSortedJournalView|Zend Framework 1.9|";
  struct Pinned {
    const std::string& chain;
    int call_no;
    const char* schedule;  // "<kind or clean> <burst> <salt>"
  };
  const auto expect_pinned = [](const FaultPlan& plan, const std::vector<Pinned>& table) {
    for (const Pinned& pinned : table) {
      const std::string call_id = pinned.chain + std::to_string(pinned.call_no);
      const CallSchedule schedule = plan_call(plan, call_id);
      const std::optional<FaultKind> kind = schedule.fault_for_attempt(0);
      EXPECT_EQ(std::string(kind.has_value() ? to_string(*kind) : "clean") + " " +
                    std::to_string(schedule.burst()) + " " + hex16(schedule.salt()),
                pinned.schedule)
          << call_id;
    }
  };

  const FaultPlan defaults;  // seed 7, 30%, every kind, bursts up to 3
  expect_pinned(defaults, {
      {a, 0, "http-503 1 3b261c501302a079"},
      {a, 1, "clean 0 e7de642f8f817d51"},
      {a, 2, "clean 0 adfbe2e65ab3c1fd"},
      {a, 3, "clean 0 ca4c7c8e1cdae87d"},
      {b, 4, "clean 0 2db0bdda5fca3fc6"},
      {b, 5, "soap12-rewrite 3 61f9ab52d5ab91e4"},
      {b, 6, "clean 0 1d34cc9dd13e91e6"},
      {b, 7, "clean 0 b36fd7949d500cce"},
      {c, 8, "drop-content-type 2 aa318a74faf2dcc8"},
      {c, 9, "read-timeout 1 0dd375dd1fdde27f"},
      {c, 10, "clean 0 9e46ba95460eb6d4"},
      {c, 11, "clean 0 aece89ac89070772"},
      {d, 0, "clean 0 cc3b9598eeae60eb"},
      {d, 5, "clean 0 160d416f395b989e"},
      {d, 10, "slow-response 2 f8dd61c792975ad9"},
      {d, 11, "slow-response 2 77d33246c95b8d60"},
      {e, 1, "http-503 2 0514a03099401521"},
      {e, 2, "clean 0 7ecd14a06b3efc6f"},
      {e, 7, "clean 0 69eaf4e08f27ace3"},
      {e, 9, "clean 0 10056ed77b22db7d"},
  });

  FaultPlan every_call;
  every_call.seed = 1;
  every_call.rate_percent = 100;
  expect_pinned(every_call, {
      {a, 0, "reset 2 2f73bd0e35785273"},
      {a, 1, "drop-soap-action 1 5e18517eadcb964f"},
      {a, 2, "corrupted-byte 2 e8e45bad8d49658d"},
      {a, 3, "read-timeout 2 f461c2322edac2b4"},
      {b, 4, "corrupted-byte 1 8ed857522b1e35f0"},
      {b, 5, "read-timeout 3 088265471c4c7968"},
      {b, 6, "corrupted-byte 2 e846fa8eb39d871d"},
      {b, 7, "http-502 2 106049d333dbef1e"},
      {c, 8, "http-502 1 976f5defd027de63"},
      {c, 9, "slow-response 3 7519d5c859fedee9"},
      {c, 10, "soap12-rewrite 3 1e22695f896f3127"},
      {c, 11, "mu-inject 3 6bb019e6bd1fe00f"},
      {d, 0, "drop-content-type 2 ddf1d656b7ab82e2"},
      {d, 5, "http-503 1 58a15f20b6676b02"},
      {d, 10, "http-502 3 23bcbc6afbcc0d7f"},
      {d, 11, "http-503 3 d5f6984ee086e4ce"},
      {e, 1, "corrupted-byte 2 106de91712f477af"},
      {e, 2, "read-timeout 2 b66eae40c9b13c18"},
      {e, 7, "soap12-rewrite 1 9d52b85610070d1c"},
      {e, 9, "content-type-skew 1 ea6561853ea5759a"},
  });

  FaultPlan listed;
  listed.seed = 42;
  listed.rate_percent = 100;
  listed.max_burst = 5;
  listed.kinds = {FaultKind::kHttp503, FaultKind::kTruncatedBody, FaultKind::kSoap12Rewrite};
  expect_pinned(listed, {
      {a, 0, "http-503 4 b03ba8af3b0f00a8"},
      {a, 1, "http-503 4 5e19e7ec0f7c9f2f"},
      {a, 2, "truncated-body 5 4ba7298f2d9a594e"},
      {a, 3, "http-503 2 32265b8aca8cb6c2"},
      {b, 4, "http-503 1 f9b15f861658152e"},
      {b, 5, "soap12-rewrite 2 204fa6d1d6fd7135"},
      {b, 6, "http-503 1 2e1659bc97e7c2b9"},
      {b, 7, "truncated-body 3 0a507ee5668fe3cb"},
      {c, 8, "http-503 3 c1178ce08b8fed91"},
      {c, 9, "truncated-body 3 003d2cbf46435a09"},
      {c, 10, "http-503 4 4e9df0212db84c78"},
      {c, 11, "http-503 2 b4d734ff027dcd91"},
      {d, 0, "truncated-body 4 160b14b870425aa8"},
      {d, 5, "http-503 1 77182282ad7d32d1"},
      {d, 10, "soap12-rewrite 2 2e4d3260f2084036"},
      {d, 11, "soap12-rewrite 5 73aed356068f08aa"},
      {e, 1, "http-503 4 5b99edbeceb11769"},
      {e, 2, "truncated-body 3 0a77898e515d5a35"},
      {e, 7, "soap12-rewrite 4 6337bba27ccf4511"},
      {e, 9, "soap12-rewrite 2 cc6491eccab08ced"},
  });
}

TEST(FaultPlan, ChainPrefixStateDrawsTheWholeIdsSchedule) {
  // A chain hashes "scope|service|client|" once and folds in each call's
  // number: the schedule, and its salt (the call's hash), are the whole id's.
  FaultPlan listed;
  listed.seed = 42;
  listed.rate_percent = 100;
  listed.max_burst = 5;
  listed.kinds = {FaultKind::kHttp503, FaultKind::kTruncatedBody};
  for (const std::string& prefix :
       {std::string(), std::string("Metro 2.3|EchoDataSource|Apache CXF 2.7.6|"),
        std::string("WCF .NET 4.0.30319.17929 [shaded]|EchoDataTable|suds Python 0.4|")}) {
    const std::uint64_t state = call_id_prefix(prefix);
    for (const std::size_t call_no :
         {std::size_t{0}, std::size_t{7}, std::size_t{11}, std::size_t{12345},
          std::numeric_limits<std::size_t>::max()}) {
      const std::string call_id = prefix + std::to_string(call_no);
      for (const FaultPlan& plan : {FaultPlan{}, listed}) {
        const CallSchedule whole = plan_call(plan, call_id);
        const CallSchedule folded = plan_call(plan, state, call_no);
        EXPECT_EQ(folded.fault_for_attempt(0), whole.fault_for_attempt(0)) << call_id;
        EXPECT_EQ(folded.burst(), whole.burst()) << call_id;
        EXPECT_EQ(folded.salt(), whole.salt()) << call_id;
      }
    }
  }
}

TEST(FaultKindMeta, NamesRoundTripThroughTheParser) {
  for (const FaultKind kind : all_fault_kinds()) {
    const std::optional<FaultKind> parsed = parse_fault_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_fault_kind("nope").has_value());
  EXPECT_EQ(all_fault_kinds().size(), kFaultKindCount);
}

// -------------------------------------------------------------------- policy

TEST(Policy, EveryRosterClientHasACalibration) {
  // All eleven client tools resolve to a non-default policy or an explicit
  // conservative one; at least three materially different profiles exist.
  const ResiliencePolicy metro = policy_for("Oracle Metro 2.3");
  const ResiliencePolicy gsoap = policy_for("gSOAP Toolkit 2.8.16");
  const ResiliencePolicy suds = policy_for("suds Python 0.4");
  EXPECT_GT(metro.max_retries, 0u);
  EXPECT_TRUE(metro.retry_on_reset);
  EXPECT_TRUE(gsoap.abort_on_first_wire_fault);
  EXPECT_EQ(suds.max_retries, 0u);
  EXPECT_EQ(suds.attempt_timeout_ms, suds.call_budget_ms);  // the hang profile
}

TEST(Policy, IdempotencyGateIsCalibratedPerStack) {
  EXPECT_FALSE(policy_for("Apache CXF 2.7.6").retransmit_after_server_execution);
  EXPECT_FALSE(
      policy_for(".NET Framework 4.0.30319.17929 (C#)").retransmit_after_server_execution);
  EXPECT_TRUE(policy_for("Oracle Metro 2.3").retransmit_after_server_execution);
}

TEST(Policy, BackoffGrowsAndStaysCappedAndDeterministic) {
  const ResiliencePolicy dotnet = policy_for(".NET Framework 4.0.30319.17929 (C#)");
  const std::uint64_t b0 = dotnet.backoff_before(0, 99);
  const std::uint64_t b1 = dotnet.backoff_before(1, 99);
  const std::uint64_t b5 = dotnet.backoff_before(5, 99);
  EXPECT_GE(b0, dotnet.base_backoff_ms);
  EXPECT_GE(b1, 2 * dotnet.base_backoff_ms);
  EXPECT_LE(b5, dotnet.max_backoff_ms + dotnet.jitter_ms);
  EXPECT_EQ(dotnet.backoff_before(1, 99), b1);  // same salt, same delay
}

TEST(Policy, UnknownClientGetsConservativeDefault) {
  const ResiliencePolicy policy = policy_for("Some Unknown Stack 1.0");
  EXPECT_EQ(policy.max_retries, 0u);
  EXPECT_FALSE(policy.retry_on_reset);
}

TEST(Policy, TableRendersEveryFamily) {
  const std::string table = format_policy_table();
  EXPECT_NE(table.find("Oracle Metro"), std::string::npos);
  EXPECT_NE(table.find("gSOAP"), std::string::npos);
  EXPECT_NE(table.find("suds"), std::string::npos);
}

// ------------------------------------------------------------ circuit breaker

TEST(Breaker, OpensAfterConsecutiveFailuresAndCoolsDown) {
  BreakerSettings settings;
  settings.failure_threshold = 3;
  settings.open_ms = 1000;
  CircuitBreaker breaker(settings);
  EXPECT_TRUE(breaker.allows(0));
  breaker.record_failure(10);
  breaker.record_failure(20);
  EXPECT_TRUE(breaker.allows(25));  // below threshold, still closed
  breaker.record_failure(30);
  EXPECT_EQ(breaker.state(31), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allows(31));
  EXPECT_EQ(breaker.trips(), 1u);
  // After the cooldown the breaker admits a probe.
  EXPECT_EQ(breaker.state(1030), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allows(1030));
}

TEST(Breaker, HalfOpenProbeDecidesTheNextState) {
  BreakerSettings settings;
  settings.failure_threshold = 1;
  settings.open_ms = 100;
  CircuitBreaker failed(settings);
  failed.record_failure(0);
  ASSERT_EQ(failed.state(100), CircuitBreaker::State::kHalfOpen);
  failed.record_failure(100);  // probe failed → re-open, counted as a trip
  EXPECT_EQ(failed.state(150), CircuitBreaker::State::kOpen);
  EXPECT_EQ(failed.trips(), 2u);

  CircuitBreaker recovered(settings);
  recovered.record_failure(0);
  recovered.record_success(100);  // probe succeeded → closed again
  EXPECT_EQ(recovered.state(101), CircuitBreaker::State::kClosed);
}

TEST(Breaker, SuccessResetsTheFailureStreak) {
  BreakerSettings settings;
  settings.failure_threshold = 2;
  CircuitBreaker breaker(settings);
  breaker.record_failure(0);
  breaker.record_success(1);
  breaker.record_failure(2);
  EXPECT_EQ(breaker.state(3), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------------------------ campaign

/// Small population: enough services for differentiated counts, fast
/// enough for a unit test (shared with the propcheck suite).
ChaosConfig scaled_config() {
  ChaosConfig config;
  config.java_spec = wsx::testing::small_java_spec();
  config.dotnet_spec = wsx::testing::small_dotnet_spec();
  return config;
}

class ChaosStudy : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChaosConfig config = scaled_config();
    config.plan.rate_percent = 60;  // plenty of challenged calls
    config.calls_per_pair = 2;
    config.jobs = 2;
    result_ = new ChaosResult(run_chaos_study(config));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const ChaosResult& result() { return *result_; }
  static ChaosResult* result_;

  /// The cell of the first server whose client starts with `prefix`,
  /// aggregated over all servers.
  static ChaosCell aggregate(std::string_view prefix) {
    ChaosCell total;
    for (const ChaosServerResult& server : result().servers) {
      for (const ChaosCell& cell : server.cells) {
        if (cell.client.rfind(prefix, 0) != 0) continue;
        total.client = cell.client;
        for (std::size_t i = 0; i < kChaosOutcomeCount; ++i) {
          total.outcomes[i] += cell.outcomes[i];
        }
        total.retransmits += cell.retransmits;
        total.challenged += cell.challenged;
        total.challenged_ok += cell.challenged_ok;
      }
    }
    return total;
  }
};

ChaosResult* ChaosStudy::result_ = nullptr;

TEST_F(ChaosStudy, FaultsActuallyChallengeCalls) {
  EXPECT_GT(result().total_attempted(), 0u);
  EXPECT_GT(result().total_challenged(), 0u);
  EXPECT_GT(result().total_challenged_ok(), 0u);
}

TEST_F(ChaosStudy, ClientProfilesDiverge) {
  // At least three materially different resilience profiles must emerge
  // from the same fault plan: a retrier that recovers, an aborter that
  // fails fast without a single retransmit, and a stack that hangs.
  const ChaosCell metro = aggregate("Oracle Metro");
  const ChaosCell gsoap = aggregate("gSOAP");
  const ChaosCell suds = aggregate("suds");
  EXPECT_GT(metro.count(ChaosOutcome::kRecovered), 0u);
  EXPECT_GT(metro.retransmits, 0u);
  EXPECT_EQ(gsoap.count(ChaosOutcome::kRecovered), 0u);
  EXPECT_EQ(gsoap.retransmits, 0u);
  EXPECT_GT(gsoap.count(ChaosOutcome::kFailedFast), 0u);
  EXPECT_GT(suds.count(ChaosOutcome::kHung), 0u);
  EXPECT_EQ(suds.retransmits, 0u);
}

TEST_F(ChaosStudy, RecoveryRatesDiffer) {
  // Resilience is a spectrum, not a constant: the best and worst stacks
  // must be separated by their recovery rate.
  std::set<long> rates;
  for (const char* prefix : {"Oracle Metro", "Apache CXF", "gSOAP", "Zend", "suds"}) {
    rates.insert(static_cast<long>(aggregate(prefix).recovery_rate()));
  }
  EXPECT_GE(rates.size(), 3u);
}

TEST_F(ChaosStudy, IdempotencyGateShowsInDotNet) {
  // .NET retries resets but refuses to retransmit once the server executed;
  // Metro retransmits blindly and therefore records degraded successes.
  const ChaosCell metro = aggregate("Oracle Metro");
  EXPECT_GT(metro.count(ChaosOutcome::kDegradedOk), 0u);
}

TEST_F(ChaosStudy, AttemptedPlusBlockedCoversAllCalls) {
  for (const ChaosServerResult& server : result().servers) {
    for (const ChaosCell& cell : server.cells) {
      EXPECT_EQ(cell.attempted() + cell.count(ChaosOutcome::kBlockedEarlier),
                server.services_deployed * result().calls_per_pair)
          << server.server << " / " << cell.client;
    }
  }
}

TEST_F(ChaosStudy, ChallengedBoundsHold) {
  for (const ChaosServerResult& server : result().servers) {
    for (const ChaosCell& cell : server.cells) {
      EXPECT_LE(cell.challenged_ok, cell.challenged);
      EXPECT_LE(cell.challenged, cell.attempted());
      EXPECT_LE(cell.challenged, cell.faulted_attempts);
    }
  }
}

TEST_F(ChaosStudy, RendersCoverEveryClient) {
  const std::string text = format_chaos(result());
  const std::string markdown = chaos_markdown(result());
  const std::string csv = chaos_csv(result());
  for (const char* name : {"Oracle Metro", "gSOAP", "suds", "Zend"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(markdown.find(name), std::string::npos) << name;
    EXPECT_NE(csv.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(csv.find("server,client,blocked,ok,recovered"), 0u);
  EXPECT_NE(chaos_recovery_json(result()).find("\"recovery_rate\""), std::string::npos);
}

TEST(ChaosDeterminism, WorkerCountDoesNotChangeTheResult) {
  ChaosConfig config = scaled_config();
  config.plan.seed = 7;
  config.calls_per_pair = 2;
  config.jobs = 1;
  const std::string serial = chaos_csv(run_chaos_study(config));
  config.jobs = 8;
  const std::string parallel = chaos_csv(run_chaos_study(config));
  EXPECT_EQ(serial, parallel);  // byte-identical, not just equal counts
}

TEST(ChaosEquivalence, ZeroFaultRateMatchesTheCommunicationStudy) {
  // With a clean wire the campaign must degenerate to the communication
  // study: same success counts per (server, client) cell, no resilience
  // machinery engaged anywhere.
  ChaosConfig chaos_config = scaled_config();
  chaos_config.plan.rate_percent = 0;
  chaos_config.calls_per_pair = 1;
  const ChaosResult chaos = run_chaos_study(chaos_config);

  interop::StudyConfig comm_config;
  comm_config.java_spec = chaos_config.java_spec;
  comm_config.dotnet_spec = chaos_config.dotnet_spec;
  const interop::CommunicationResult comm = run_communication_study(comm_config);

  ASSERT_EQ(chaos.servers.size(), comm.servers.size());
  for (std::size_t s = 0; s < chaos.servers.size(); ++s) {
    ASSERT_EQ(chaos.servers[s].cells.size(), comm.servers[s].cells.size());
    for (std::size_t c = 0; c < chaos.servers[s].cells.size(); ++c) {
      const ChaosCell& chaos_cell = chaos.servers[s].cells[c];
      const interop::CommCell& comm_cell = comm.servers[s].cells[c];
      ASSERT_EQ(chaos_cell.client, comm_cell.client);
      EXPECT_EQ(chaos_cell.count(ChaosOutcome::kOk),
                comm_cell.count(interop::CommOutcome::kOk))
          << chaos.servers[s].server << " / " << chaos_cell.client;
      EXPECT_EQ(chaos_cell.count(ChaosOutcome::kRecovered), 0u);
      EXPECT_EQ(chaos_cell.count(ChaosOutcome::kDegradedOk), 0u);
      EXPECT_EQ(chaos_cell.count(ChaosOutcome::kExhaustedRetries), 0u);
      EXPECT_EQ(chaos_cell.count(ChaosOutcome::kHung), 0u);
      EXPECT_EQ(chaos_cell.retransmits, 0u);
      EXPECT_EQ(chaos_cell.challenged, 0u);
      EXPECT_EQ(chaos_cell.breaker_trips, 0u);
    }
  }
}

TEST(ChaosOutcomeMeta, Names) {
  EXPECT_STREQ(to_string(ChaosOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(ChaosOutcome::kRecovered), "recovered");
  EXPECT_STREQ(to_string(ChaosOutcome::kHung), "hung");
  EXPECT_STREQ(to_string(ChaosOutcome::kFailedFast), "failed fast");
}

}  // namespace
}  // namespace wsx::chaos
