// Tests for the propcheck campaign (src/gen/campaign.*, supervised.*,
// bridge.*): the validity and stability properties on a clean corpus, the
// injected schema-violation bug being found and shrunk to a minimal
// counterexample (the ISSUE's acceptance criterion), the config
// fingerprint round-trip, supervised trip/resume byte-identity, deadline
// quarantine folding, and the rate-0 wire transparency bridge to chaos.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/fault.hpp"
#include "chaos/wire.hpp"
#include "compilers/compiler.hpp"
#include "gen/bridge.hpp"
#include "gen/campaign.hpp"
#include "common/json.hpp"
#include "gen/supervised.hpp"
#include "resilience/journal.hpp"
#include "test_helpers.hpp"

namespace wsx {
namespace {

/// A deliberately tiny population: the campaign runs several times below.
gen::GenConfig tiny_gen() {
  gen::GenConfig config;
  config.java_spec.plain_beans = 4;
  config.java_spec.throwable_clean = 1;
  config.java_spec.no_default_ctor = 1;
  config.java_spec.abstract_classes = 1;
  config.java_spec.interfaces = 1;
  config.dotnet_spec.plain_types = 4;
  config.dotnet_spec.dataset_plain = 1;
  config.dotnet_spec.non_serializable = 1;
  config.dotnet_spec.abstract_classes = 1;
  config.dotnet_spec.interfaces = 1;
  config.corpus.cases_per_operation = 2;
  config.jobs = 2;
  return config;
}

struct ScratchJournal {
  std::string path;
  explicit ScratchJournal(const std::string& name)
      : path(::testing::TempDir() + "wsx_propcheck_" + name + ".journal") {
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

// -------------------------------------------------------------- properties

TEST(Propcheck, ValidModeUpholdsBothProperties) {
  // The acceptance property: every generated request passes XSD validation
  // and classifies exactly like the pair's baseline.
  const gen::PropcheckResult result = gen::run_propcheck(tiny_gen());
  EXPECT_GT(result.total(gen::PropOutcome::kPass), 0u);
  EXPECT_EQ(result.total(gen::PropOutcome::kInvalidValue), 0u);
  EXPECT_EQ(result.total(gen::PropOutcome::kMismatch), 0u);
  EXPECT_EQ(result.total_failures(), 0u);
}

TEST(Propcheck, SabotageModeFindsAndShrinksTheInjectedBug) {
  // The injected schema-violation bug: sabotage draws values outside the
  // contract, the validity property must catch every detectable one, and
  // the shrinker must hand back a counterexample no larger than the
  // original failing payload.
  gen::GenConfig config = tiny_gen();
  config.corpus.sabotage = true;
  const gen::PropcheckResult result = gen::run_propcheck(config);
  EXPECT_GT(result.total(gen::PropOutcome::kInvalidValue), 0u);
  ASSERT_GT(result.total_failures(), 0u);
  bool shrunk_one = false;
  for (const gen::PropServerResult& server : result.servers) {
    for (const gen::PropCell& cell : server.cells) {
      for (const gen::PropFailure& failure : cell.failures) {
        EXPECT_EQ(failure.kind, "invalid-value");
        EXPECT_FALSE(failure.detail.empty());
        EXPECT_FALSE(failure.payload.empty());
        if (!failure.shrunk.empty()) {
          EXPECT_LE(failure.shrunk.size(), failure.payload.size());
          shrunk_one = true;
        }
      }
    }
  }
  EXPECT_TRUE(shrunk_one);
}

TEST(Propcheck, ReportsSurfaceTheCounterexamples) {
  gen::GenConfig config = tiny_gen();
  config.corpus.sabotage = true;
  const gen::PropcheckResult result = gen::run_propcheck(config);
  const std::string text = gen::format_propcheck(result, /*with_shrink=*/true);
  EXPECT_NE(text.find("Counterexamples"), std::string::npos);
  EXPECT_NE(text.find("replay:"), std::string::npos);
  EXPECT_NE(text.find(gen::replay_command(config.corpus)), std::string::npos);
  Result<json::Value> parsed = json::parse(gen::propcheck_json(result));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(parsed->find("servers") != nullptr);
}

TEST(Propcheck, WorkerCountDoesNotChangeTheResult) {
  gen::GenConfig config = tiny_gen();
  config.jobs = 1;
  const std::string single = gen::propcheck_json(gen::run_propcheck(config));
  config.jobs = 8;
  const std::string parallel = gen::propcheck_json(gen::run_propcheck(config));
  EXPECT_EQ(single, parallel);
}

// ------------------------------------------------------ config fingerprint

TEST(ConfigFingerprint, GenRoundTrips) {
  gen::GenConfig config = tiny_gen();
  config.corpus.seed = 99;
  config.corpus.max_depth = 3;
  config.corpus.sabotage = true;
  config.shrink = false;
  const std::string json = gen::gen_config_json(config);
  Result<gen::GenConfig> parsed = gen::gen_config_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(gen::gen_config_json(*parsed), json);
  EXPECT_FALSE(gen::gen_config_from_json("not json").ok());
}

// --------------------------------------------------------------- supervised

TEST(SupervisedPropcheck, FullCoverageMatchesLegacyReport) {
  const gen::GenConfig config = tiny_gen();
  const gen::PropcheckResult legacy = gen::run_propcheck(config);
  Result<gen::SupervisedGenResult> supervised = gen::run_propcheck_supervised(config, {});
  ASSERT_TRUE(supervised.ok()) << supervised.error().message;
  EXPECT_EQ(gen::propcheck_json(supervised->propcheck), gen::propcheck_json(legacy));
}

TEST(SupervisedPropcheck, InterruptedRunResumesByteIdentically) {
  const gen::GenConfig config = tiny_gen();
  ScratchJournal scratch("resume");
  resilience::Supervision base;
  base.journal.checkpoint_every = 3;

  Result<gen::SupervisedGenResult> uninterrupted =
      gen::run_propcheck_supervised(config, base);
  ASSERT_TRUE(uninterrupted.ok());

  resilience::Supervision interrupted = base;
  interrupted.checkpoint_path = scratch.path;
  interrupted.trip_after_tasks = 4;
  ASSERT_TRUE(gen::run_propcheck_supervised(config, interrupted).ok());

  Result<resilience::Journal> journal = resilience::Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  EXPECT_EQ(journal->campaign, "propcheck");
  Result<gen::GenConfig> rederived = gen::gen_config_from_json(journal->config_json);
  ASSERT_TRUE(rederived.ok()) << rederived.error().message;
  rederived->jobs = 8;  // resume at a different worker count
  resilience::Supervision resumed = base;
  resumed.checkpoint_path = scratch.path;
  resumed.resume = &journal.value();
  Result<gen::SupervisedGenResult> finished =
      gen::run_propcheck_supervised(*rederived, resumed);
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_EQ(gen::propcheck_json(finished->propcheck),
            gen::propcheck_json(uninterrupted->propcheck));
}

TEST(SupervisedPropcheck, DeadlineQuarantineFoldsAsTimedOutOutcome) {
  const gen::GenConfig config = tiny_gen();
  resilience::Supervision options;
  // Live pairs charge kCaseCostMs per wire call; a 1 ms deadline is
  // impossible, so those services quarantine and fold as kTimedOut for
  // their whole corpus.
  options.journal.task_deadline_ms = 1;
  options.journal.quarantine_after = 2;
  Result<gen::SupervisedGenResult> supervised =
      gen::run_propcheck_supervised(config, options);
  ASSERT_TRUE(supervised.ok());
  EXPECT_GT(supervised->supervisor.quarantined, 0u);
  EXPECT_GT(supervised->propcheck.total(gen::PropOutcome::kTimedOut), 0u);
  EXPECT_NE(gen::format_propcheck(supervised->propcheck, false).find("timed-out"),
            std::string::npos);
}

// ------------------------------------------------------------------ bridge

TEST(PropcheckBridge, RateZeroWireIsTransparentToTheCorpus) {
  // A schema-valid corpus replayed over a clean FaultyWire must classify
  // byte-for-byte like the direct communication path.
  const auto server = frameworks::make_server("Metro 2.3");
  chaos::FaultPlan clean;
  clean.rate_percent = 0;
  const chaos::FaultyWire wire(*server, clean);
  const auto compiler = compilers::make_compiler(code::Language::kJava);
  const auto clients = frameworks::make_clients();
  const frameworks::ClientFramework& client = *clients.front();

  std::size_t compared = 0;
  gen::CorpusOptions options;
  options.cases_per_operation = 2;
  const catalog::TypeCatalog catalog =
      catalog::make_java_catalog(wsx::testing::small_java_spec());
  for (const wsx::testing::SeededService& seeded :
       wsx::testing::seeded_corpus(*server, catalog, options)) {
    for (const gen::GeneratedCase& generated : seeded.corpus) {
      const frameworks::PreparedCall call = frameworks::prepare_call(
          seeded.service, seeded.description, client, compiler.get(),
          &generated.payload);
      if (call.status != frameworks::PreparedCall::Status::kReady) continue;
      const gen::WireEquivalence equivalence = gen::check_wire_equivalence(
          wire, *server, seeded.service, call, generated.case_id);
      ASSERT_TRUE(equivalence.delivered) << generated.case_id;
      EXPECT_TRUE(equivalence.identical) << generated.case_id;
      ++compared;
    }
  }
  EXPECT_GT(compared, 20u);
}

TEST(PropcheckBridge, LayeredFaultBreaksAValidRequest) {
  // Wire faults layered on a schema-valid generated request: the fault-free
  // classification is kOk, the corrupted one is not — the chaos study's
  // adversarial surface now starts from generated inputs.
  const auto server = frameworks::make_server("Metro 2.3");
  const frameworks::DeployedService service = wsx::testing::deploy_one(
      "Metro 2.3", catalog::java_names::kXmlGregorianCalendar);
  const frameworks::SharedDescription description =
      frameworks::SharedDescription::from_deployed(service, /*with_wsi=*/false);
  const auto compiler = compilers::make_compiler(code::Language::kJava);
  const auto clients = frameworks::make_clients();
  const frameworks::ClientFramework& client = *clients.front();

  gen::CorpusOptions options;
  options.cases_per_operation = 1;
  const std::vector<gen::GeneratedCase> corpus = gen::generate_corpus(service, options);
  ASSERT_FALSE(corpus.empty());
  const frameworks::PreparedCall call = frameworks::prepare_call(
      service, description, client, compiler.get(), &corpus.front().payload);
  ASSERT_EQ(call.status, frameworks::PreparedCall::Status::kReady);

  const frameworks::EchoClassification direct = frameworks::classify_echo_response(
      server->handle_http(service, call.request), call.payload);
  EXPECT_EQ(direct.outcome, frameworks::EchoOutcome::kOk);

  const soap::HttpRequest corrupted = gen::corrupt_request_body(
      call.request, chaos::FaultKind::kTruncatedBody, /*salt=*/1);
  const frameworks::EchoClassification broken = frameworks::classify_echo_response(
      server->handle_http(service, corrupted), call.payload);
  EXPECT_NE(broken.outcome, frameworks::EchoOutcome::kOk);
}

}  // namespace
}  // namespace wsx
