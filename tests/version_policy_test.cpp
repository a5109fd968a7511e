// version_policy_test.cpp — the mixed-version robustness axis
// (docs/VERSIONS.md): policy metadata, hybrid profiles, per-policy server
// validation, the version-skew wire faults, downgrade recovery, and the
// axis's determinism and resume guarantees.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "chaos/campaign.hpp"
#include "chaos/policy.hpp"
#include "chaos/supervised.hpp"
#include "chaos/wire.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/version_policy.hpp"
#include "interop/communication.hpp"
#include "interop/supervised.hpp"
#include "resilience/journal.hpp"
#include "soap/envelope.hpp"
#include "soap/http.hpp"
#include "soap/message.hpp"
#include "soap/version.hpp"
#include "test_helpers.hpp"

namespace wsx {
namespace {

using frameworks::VersionPolicy;

// ------------------------------------------------------------ metadata

TEST(VersionPolicyMeta, SpellingsRoundTripThroughTheParser) {
  const auto all = frameworks::all_version_policies();
  EXPECT_EQ(all.size(), frameworks::kVersionPolicyCount);
  for (const VersionPolicy policy : all) {
    const std::optional<VersionPolicy> parsed =
        frameworks::parse_version_policy(frameworks::to_string(policy));
    ASSERT_TRUE(parsed.has_value()) << frameworks::to_string(policy);
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(frameworks::parse_version_policy("lenient").has_value());
  EXPECT_FALSE(frameworks::parse_version_policy("").has_value());
}

TEST(VersionPolicyMeta, PolicyImpliesProfile) {
  EXPECT_EQ(frameworks::profile_for(VersionPolicy::kStrict), soap::HybridProfile::kPure11);
  EXPECT_EQ(frameworks::profile_for(VersionPolicy::kRelaxed),
            soap::HybridProfile::kAddressing);
  EXPECT_EQ(frameworks::profile_for(VersionPolicy::kShadedCxf),
            soap::HybridProfile::kSecured);
}

TEST(VersionPolicyMeta, MatrixCoversTheRoster) {
  const std::string matrix = frameworks::format_version_policy_matrix();
  for (const auto& server : frameworks::make_servers()) {
    EXPECT_NE(matrix.find(server->name()), std::string::npos) << server->name();
  }
  for (const auto& client : frameworks::make_clients()) {
    EXPECT_NE(matrix.find(client->name()), std::string::npos) << client->name();
  }
  EXPECT_NE(matrix.find("| strict |"), std::string::npos);
  EXPECT_NE(matrix.find("| relaxed |"), std::string::npos);
  EXPECT_NE(matrix.find("| shaded |"), std::string::npos);
}

// -------------------------------------------- per-policy server validation

class ServerPolicy : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    service_ = new frameworks::DeployedService(wsx::testing::deploy_one(
        "Metro 2.3", catalog::java_names::kXmlGregorianCalendar));
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
  }
  static const frameworks::DeployedService& service() { return *service_; }
  static frameworks::DeployedService* service_;

  /// A well-formed echo request dressed in `profile`.
  static soap::Envelope request_with(soap::HybridProfile profile) {
    Result<soap::Envelope> request =
        soap::build_request(service().wsdl, "echo", {{"arg0", "versioned"}});
    EXPECT_TRUE(request.ok());
    soap::apply_hybrid_profile(*request, profile, "echo");
    return *request;
  }

  /// Runs the envelope through the server under `policy` and returns the
  /// fault code ("" = echoed successfully).
  static std::string fault_code(const soap::Envelope& request, VersionPolicy policy) {
    const auto server = frameworks::make_server("Metro 2.3");
    const soap::Envelope response = server->handle_request(service(), request, policy);
    return response.is_fault() ? response.fault().fault_code : "";
  }
};

frameworks::DeployedService* ServerPolicy::service_ = nullptr;

TEST_F(ServerPolicy, PureElevenIsAcceptedUnderEveryPolicy) {
  for (const VersionPolicy policy : frameworks::all_version_policies()) {
    EXPECT_EQ(fault_code(request_with(soap::HybridProfile::kPure11), policy), "")
        << frameworks::to_string(policy);
  }
}

TEST_F(ServerPolicy, StrictFaultsAnyTwelveEraHeader) {
  EXPECT_EQ(fault_code(request_with(soap::HybridProfile::kAddressing),
                       VersionPolicy::kStrict),
            "soap:VersionMismatch");
  EXPECT_EQ(fault_code(request_with(soap::HybridProfile::kSecured), VersionPolicy::kStrict),
            "soap:VersionMismatch");
}

TEST_F(ServerPolicy, RelaxedSkipsIgnorableHeadersButFaultsMustUnderstand) {
  EXPECT_EQ(fault_code(request_with(soap::HybridProfile::kAddressing),
                       VersionPolicy::kRelaxed),
            "");
  EXPECT_EQ(fault_code(request_with(soap::HybridProfile::kSecured),
                       VersionPolicy::kRelaxed),
            "soap:MustUnderstand");
}

TEST_F(ServerPolicy, ShadedProcessesTheFullDigikoppelingShape) {
  EXPECT_EQ(fault_code(request_with(soap::HybridProfile::kSecured),
                       VersionPolicy::kShadedCxf),
            "");
}

TEST_F(ServerPolicy, UnknownMustUnderstandHeaderFaultsUnderEveryPolicy) {
  for (const VersionPolicy policy : frameworks::all_version_policies()) {
    soap::Envelope request = request_with(soap::HybridProfile::kPure11);
    xml::Element custom("ext:Session");
    custom.set_attribute("xmlns:ext", "urn:example:session");
    request.add_must_understand_header(std::move(custom));
    EXPECT_EQ(fault_code(request, policy), "soap:MustUnderstand")
        << frameworks::to_string(policy);
  }
}

TEST_F(ServerPolicy, GenuineSoap12EnvelopeSplitsTheRoster) {
  soap::Envelope request = request_with(soap::HybridProfile::kPure11);
  request.set_version(soap::SoapVersion::k12);
  // Strict and relaxed endpoints answer with the standard fault, in 1.1.
  EXPECT_EQ(fault_code(request, VersionPolicy::kStrict), "soap:VersionMismatch");
  EXPECT_EQ(fault_code(request, VersionPolicy::kRelaxed), "soap:VersionMismatch");
  // The shaded runtime processes it and answers in kind.
  const auto server = frameworks::make_server("Metro 2.3");
  const soap::Envelope response =
      server->handle_request(service(), request, VersionPolicy::kShadedCxf);
  EXPECT_FALSE(response.is_fault());
  EXPECT_EQ(response.version(), soap::SoapVersion::k12);
}

TEST_F(ServerPolicy, MediaTypeGateIsPolicyScoped) {
  const auto server = frameworks::make_server("Metro 2.3");
  soap::Envelope request = request_with(soap::HybridProfile::kPure11);
  request.set_version(soap::SoapVersion::k12);
  soap::HttpRequest http =
      soap::make_soap_request("http://localhost/echo", "", soap::write(request));
  http.set_header("Content-Type", "application/soap+xml; charset=utf-8");
  for (const VersionPolicy policy :
       {VersionPolicy::kStrict, VersionPolicy::kRelaxed}) {
    EXPECT_EQ(server->handle_http(service(), http, policy).status, 415)
        << frameworks::to_string(policy);
  }
  const soap::HttpResponse shaded =
      server->handle_http(service(), http, VersionPolicy::kShadedCxf);
  EXPECT_EQ(shaded.status, 200);
  ASSERT_TRUE(shaded.header("Content-Type").has_value());
  EXPECT_TRUE(soap::content_type_matches(*shaded.header("Content-Type"),
                                         soap::SoapVersion::k12));
}

// ------------------------------------------------- version-skew wire faults

TEST(VersionSkewWire, DowngradedRetransmitBypassesOnlySkewKinds) {
  const frameworks::DeployedService service = wsx::testing::deploy_one(
      "Metro 2.3", catalog::java_names::kXmlGregorianCalendar);
  const auto server = frameworks::make_server("Metro 2.3");
  Result<soap::Envelope> request =
      soap::build_request(service.wsdl, "echo", {{"arg0", "skew"}});
  ASSERT_TRUE(request.ok());
  const soap::HttpRequest http =
      soap::make_soap_request("http://localhost/echo", "", soap::write(*request));

  for (const chaos::FaultKind kind :
       {chaos::FaultKind::kSoap12Rewrite, chaos::FaultKind::kMustUnderstandInject,
        chaos::FaultKind::kContentTypeSkew}) {
    chaos::FaultPlan plan;
    plan.rate_percent = 100;
    plan.kinds = {kind};
    chaos::FaultyWire wire(*server, plan);
    wire.set_server_policy(VersionPolicy::kStrict);
    const chaos::CallSchedule schedule = wire.schedule("pair|call#0");
    ASSERT_TRUE(schedule.faulted());

    // The skewed attempt reaches a strict server and is rejected — a SOAP
    // fault (HTTP 500) for the envelope-level skews, HTTP 415 when the
    // Content-Type itself was skewed.
    const chaos::WireAttempt skewed = wire.attempt(service, http, schedule, 0);
    ASSERT_TRUE(skewed.injected.has_value());
    if (skewed.response.status == 415) {
      EXPECT_EQ(kind, chaos::FaultKind::kContentTypeSkew);
    } else {
      EXPECT_EQ(skewed.response.status, 500) << chaos::to_string(kind);
      Result<soap::Envelope> envelope = soap::parse(skewed.response.body);
      ASSERT_TRUE(envelope.ok());
      EXPECT_TRUE(envelope->is_fault()) << chaos::to_string(kind);
    }

    // The downgraded retransmit renegotiates around the intermediary: the
    // same schedule slot no longer injects, and the call succeeds.
    const chaos::WireAttempt downgraded =
        wire.attempt(service, http, schedule, 0, /*downgraded=*/true);
    EXPECT_FALSE(downgraded.injected.has_value()) << chaos::to_string(kind);
    EXPECT_EQ(downgraded.response.status, 200) << chaos::to_string(kind);
  }

  // A non-skew kind is NOT bypassed by the downgrade.
  chaos::FaultPlan plan;
  plan.rate_percent = 100;
  plan.kinds = {chaos::FaultKind::kConnectionReset};
  chaos::FaultyWire wire(*server, plan);
  const chaos::CallSchedule schedule = wire.schedule("pair|call#0");
  ASSERT_TRUE(schedule.faulted());
  const chaos::WireAttempt reset =
      wire.attempt(service, http, schedule, 0, /*downgraded=*/true);
  EXPECT_TRUE(reset.injected.has_value());
}

TEST(VersionSkewWire, SkewKindsParseAndPrint) {
  for (const char* name : {"soap12-rewrite", "mu-inject", "content-type-skew"}) {
    const std::optional<chaos::FaultKind> kind = chaos::parse_fault_kind(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_STREQ(chaos::to_string(*kind), name);
  }
  EXPECT_EQ(chaos::all_fault_kinds().size(), chaos::kFaultKindCount);
}

TEST(VersionSkewWire, DowngradeFlagIsCalibratedPerStack) {
  EXPECT_TRUE(chaos::policy_for("Oracle Metro 2.3").downgrade_on_version_mismatch);
  EXPECT_TRUE(chaos::policy_for("Apache CXF 2.7.6").downgrade_on_version_mismatch);
  EXPECT_FALSE(chaos::policy_for("JBossWS CXF 4.2.3").downgrade_on_version_mismatch);
  EXPECT_FALSE(chaos::policy_for("gSOAP Toolkit 2.8.16").downgrade_on_version_mismatch);
  EXPECT_NE(chaos::format_policy_table().find("downgrades"), std::string::npos);
}

// ------------------------------------------------------- the campaign axis

chaos::ChaosConfig axis_chaos_config() {
  chaos::ChaosConfig config;
  config.java_spec = wsx::testing::small_java_spec();
  config.dotnet_spec = wsx::testing::small_dotnet_spec();
  config.versions = {VersionPolicy::kStrict, VersionPolicy::kRelaxed,
                     VersionPolicy::kShadedCxf};
  config.jobs = 2;
  return config;
}

class VersionAxisChaos : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    chaos::ChaosConfig config = axis_chaos_config();
    config.plan.rate_percent = 40;
    result_ = new chaos::ChaosResult(chaos::run_chaos_study(config));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const chaos::ChaosResult& result() { return *result_; }
  static chaos::ChaosResult* result_;

  static std::size_t total(std::string_view client_prefix, chaos::ChaosOutcome outcome) {
    std::size_t count = 0;
    for (const chaos::ChaosServerResult& server : result().servers) {
      for (const chaos::ChaosCell& cell : server.cells) {
        if (cell.client.rfind(client_prefix, 0) != 0) continue;
        count += cell.count(outcome);
      }
    }
    return count;
  }
};

chaos::ChaosResult* VersionAxisChaos::result_ = nullptr;

TEST_F(VersionAxisChaos, OneRoundPerServerPolicyPair) {
  const std::size_t servers = frameworks::make_servers().size();
  ASSERT_EQ(result().servers.size(), servers * 3);
  std::size_t strict_rounds = 0;
  for (const chaos::ChaosServerResult& server : result().servers) {
    if (server.server.find(" [strict]") != std::string::npos) ++strict_rounds;
  }
  EXPECT_EQ(strict_rounds, servers);
}

TEST_F(VersionAxisChaos, DowngradeRecoversAnOutcomeClass) {
  // The acceptance bar: downgrade-capable clients convert what would be
  // version-mismatch failures into successes. Metro (relaxed, addressing
  // profile) must downgrade against strict rounds; JBossWS (shaded,
  // secured profile, no downgrade path) must surface clean mismatches and
  // never downgrade.
  EXPECT_GT(total("Oracle Metro", chaos::ChaosOutcome::kDowngraded), 0u);
  EXPECT_GT(total("Apache CXF", chaos::ChaosOutcome::kDowngraded), 0u);
  EXPECT_GT(total("JBossWS", chaos::ChaosOutcome::kVersionMismatch), 0u);
  EXPECT_EQ(total("JBossWS", chaos::ChaosOutcome::kDowngraded), 0u);
}

TEST_F(VersionAxisChaos, DowngradedCountsAsSuccess) {
  for (const chaos::ChaosServerResult& server : result().servers) {
    for (const chaos::ChaosCell& cell : server.cells) {
      EXPECT_GE(cell.succeeded(), cell.count(chaos::ChaosOutcome::kDowngraded))
          << server.server << " / " << cell.client;
    }
  }
}

TEST_F(VersionAxisChaos, RendersCarryTheNewColumns) {
  const std::string text = chaos::format_chaos(result());
  EXPECT_NE(text.find("downgraded"), std::string::npos);
  EXPECT_NE(text.find("vmismatch"), std::string::npos);
  const std::string csv = chaos::chaos_csv(result());
  EXPECT_EQ(csv.rfind("server,client,blocked,ok,recovered", 0), 0u);
  EXPECT_NE(csv.find(",version_mismatch,"), std::string::npos);
  EXPECT_NE(csv.find(",downgraded,"), std::string::npos);
  EXPECT_NE(csv.find(" [relaxed]"), std::string::npos);
}

TEST(VersionAxisDeterminism, ChaosWorkerCountDoesNotChangeTheResult) {
  chaos::ChaosConfig config = axis_chaos_config();
  config.plan.rate_percent = 35;
  config.jobs = 1;
  const std::string serial = chaos::chaos_csv(chaos::run_chaos_study(config));
  config.jobs = 8;
  const std::string parallel = chaos::chaos_csv(chaos::run_chaos_study(config));
  EXPECT_EQ(serial, parallel);
}

TEST(VersionAxisDeterminism, CleanWireStillShowsPolicyCollisions) {
  // Version mismatches and downgrades are policy effects, not wire faults:
  // they must appear even at fault rate 0.
  chaos::ChaosConfig config = axis_chaos_config();
  config.plan.rate_percent = 0;
  const chaos::ChaosResult result = chaos::run_chaos_study(config);
  std::size_t downgraded = 0;
  std::size_t mismatched = 0;
  for (const chaos::ChaosServerResult& server : result.servers) {
    for (const chaos::ChaosCell& cell : server.cells) {
      downgraded += cell.count(chaos::ChaosOutcome::kDowngraded);
      mismatched += cell.count(chaos::ChaosOutcome::kVersionMismatch);
    }
  }
  EXPECT_GT(downgraded, 0u);
  EXPECT_GT(mismatched, 0u);
}

interop::StudyConfig axis_comm_config() {
  interop::StudyConfig config;
  config.java_spec = wsx::testing::small_java_spec();
  config.dotnet_spec = wsx::testing::small_dotnet_spec();
  config.versions = {VersionPolicy::kStrict, VersionPolicy::kShadedCxf};
  return config;
}

TEST(VersionAxisCommunication, RoundsMismatchesAndDeterminism) {
  interop::StudyConfig config = axis_comm_config();
  config.threads = 1;
  const interop::CommunicationResult serial = interop::run_communication_study(config);
  ASSERT_EQ(serial.servers.size(), frameworks::make_servers().size() * 2);

  std::size_t strict_mismatches = 0;
  std::size_t shaded_mismatches = 0;
  for (const interop::CommServerResult& server : serial.servers) {
    for (const interop::CommCell& cell : server.cells) {
      const std::size_t mismatches = cell.count(interop::CommOutcome::kVersionMismatch);
      if (server.server.find(" [strict]") != std::string::npos) {
        strict_mismatches += mismatches;
      } else {
        shaded_mismatches += mismatches;
      }
    }
  }
  // Strict rounds reject the hybrid emitters that cannot downgrade at the
  // invocation layer; shaded rounds accept everything.
  EXPECT_GT(strict_mismatches, 0u);
  EXPECT_EQ(shaded_mismatches, 0u);

  config.threads = 4;
  const interop::CommunicationResult parallel = interop::run_communication_study(config);
  EXPECT_EQ(interop::communication_csv(serial), interop::communication_csv(parallel));
  EXPECT_NE(interop::format_communication(serial).find("vmismatch"), std::string::npos);
}

// ----------------------------------------------- supervised resume parity

struct ScratchJournal {
  std::string path;
  explicit ScratchJournal(const std::string& name)
      : path(::testing::TempDir() + "wsx_versions_" + name + ".journal") {
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

TEST(VersionAxisSupervised, ConfigFingerprintsCarryTheVersions) {
  chaos::ChaosConfig chaos_config = axis_chaos_config();
  const std::string chaos_json = chaos::chaos_config_json(chaos_config);
  Result<chaos::ChaosConfig> chaos_parsed = chaos::chaos_config_from_json(chaos_json);
  ASSERT_TRUE(chaos_parsed.ok()) << chaos_parsed.error().message;
  EXPECT_EQ(chaos::chaos_config_json(*chaos_parsed), chaos_json);
  ASSERT_EQ(chaos_parsed->versions.size(), 3u);
  EXPECT_EQ(chaos_parsed->versions[2], VersionPolicy::kShadedCxf);

  interop::StudyConfig comm_config = axis_comm_config();
  const std::string comm_json = interop::communication_config_json(comm_config);
  Result<interop::StudyConfig> comm_parsed =
      interop::communication_config_from_json(comm_json);
  ASSERT_TRUE(comm_parsed.ok()) << comm_parsed.error().message;
  EXPECT_EQ(interop::communication_config_json(*comm_parsed), comm_json);
  ASSERT_EQ(comm_parsed->versions.size(), 2u);
}

TEST(VersionAxisSupervised, ChaosMatchesLegacyAndResumesByteIdentically) {
  chaos::ChaosConfig config = axis_chaos_config();
  config.plan.rate_percent = 30;
  config.jobs = 2;
  const std::string legacy = chaos::chaos_csv(chaos::run_chaos_study(config));

  resilience::Supervision base;
  base.journal.checkpoint_every = 3;
  Result<chaos::SupervisedChaosResult> straight = chaos::run_chaos_supervised(config, base);
  ASSERT_TRUE(straight.ok()) << straight.error().message;
  EXPECT_EQ(chaos::chaos_csv(straight.value().chaos), legacy);

  ScratchJournal scratch("chaos");
  resilience::Supervision interrupted = base;
  interrupted.checkpoint_path = scratch.path;
  interrupted.trip_after_tasks = 4;
  ASSERT_TRUE(chaos::run_chaos_supervised(config, interrupted).ok());

  Result<resilience::Journal> journal = resilience::Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  Result<chaos::ChaosConfig> rederived = chaos::chaos_config_from_json(journal->config_json);
  ASSERT_TRUE(rederived.ok()) << rederived.error().message;
  ASSERT_EQ(rederived->versions.size(), 3u);

  resilience::Supervision resumed = base;
  resumed.resume = &journal.value();
  Result<chaos::SupervisedChaosResult> finished =
      chaos::run_chaos_supervised(*rederived, resumed);
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_EQ(chaos::chaos_csv(finished.value().chaos), legacy);
}

TEST(VersionAxisSupervised, CommunicationMatchesLegacy) {
  interop::StudyConfig config = axis_comm_config();
  config.threads = 2;
  const interop::CommunicationResult legacy = interop::run_communication_study(config);
  Result<interop::SupervisedCommunicationResult> supervised =
      interop::run_communication_supervised(config, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(interop::communication_csv(supervised.value().communication),
            interop::communication_csv(legacy));
}

}  // namespace
}  // namespace wsx
