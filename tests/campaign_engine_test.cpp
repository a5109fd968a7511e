// campaign_engine_test — the one per-service task engine behind the study,
// communication, chaos and propcheck campaigns.
//
// Golden artefacts: the files under tests/data/ were rendered by the
// phase-by-phase drivers (deploy every service, build every description,
// then run the clients over parallel slices) that the task engine
// replaced. They pin every report surface of the study (with and without
// the WS-I deploy gate), the communication and chaos campaigns on the
// strict and shaded version rounds, and propcheck with sabotage and
// shrinking, so the engine cannot drift while still agreeing with itself.
// Each artefact must match byte for byte at jobs 1 and 8. On a mismatch
// the rendered text is written to the test temp dir (`<name>.actual`) so
// the difference can be inspected with diff.
//
// The rest pins what the engine promises beyond the numbers: the observer
// stream in corpus order at any worker count, a task that throws on every
// attempt failing the run by name, refusals at deploy, and journals whose
// records predate the engine failing before they are appended to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "chaos/campaign.hpp"
#include "frameworks/registry.hpp"
#include "gen/campaign.hpp"
#include "interop/communication.hpp"
#include "interop/persistence.hpp"
#include "interop/report.hpp"
#include "interop/report_formats.hpp"
#include "interop/study.hpp"
#include "interop/supervised.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "resilience/journal.hpp"

namespace wsx {
namespace {

/// The cache-equivalence pack's population: every server, deployment
/// refusals, WS-I flags, zero-operation services and client errors.
catalog::JavaCatalogSpec small_java() {
  catalog::JavaCatalogSpec spec;
  spec.plain_beans = 40;
  spec.throwable_clean = 8;
  spec.throwable_raw = 2;
  spec.raw_generic_beans = 4;
  spec.anytype_array_beans = 2;
  spec.no_default_ctor = 12;
  spec.abstract_classes = 6;
  spec.interfaces = 8;
  spec.generic_types = 4;
  return spec;
}

catalog::DotNetCatalogSpec small_dotnet() {
  catalog::DotNetCatalogSpec spec;
  spec.plain_types = 42;
  spec.dataset_plain = 2;
  spec.deep_nesting_clean = 6;
  spec.deep_nesting_pathological = 1;
  spec.non_serializable = 16;
  spec.no_default_ctor = 14;
  spec.generic_types = 8;
  spec.abstract_classes = 5;
  spec.interfaces = 4;
  return spec;
}

interop::StudyConfig small_study() {
  interop::StudyConfig config;
  config.java_spec = small_java();
  config.dotnet_spec = small_dotnet();
  return config;
}

const std::vector<frameworks::VersionPolicy> kRounds = {frameworks::VersionPolicy::kStrict,
                                                        frameworks::VersionPolicy::kShadedCxf};

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(WSX_TEST_DATA_DIR) + "/" + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Renders the campaign at jobs 1 and 8 and compares each rendering with
/// the golden file `name`.
void expect_golden(const std::string& name,
                   const std::function<std::string(std::size_t jobs)>& render) {
  const std::string want = read_golden(name);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const std::string actual = render(jobs);
    if (actual == want) continue;
    const std::string path = ::testing::TempDir() + name + ".actual";
    std::ofstream(path) << actual;
    ADD_FAILURE() << (want.empty() ? "missing golden file tests/data/"
                                   : "campaign artefacts differ from tests/data/")
                  << name << " at jobs=" << jobs << "; rendered: " << path;
    return;
  }
}

std::string render_study(bool gate, std::size_t jobs) {
  interop::StudyConfig config = small_study();
  config.wsi_deploy_gate = gate;
  config.threads = jobs;
  const interop::StudyResult result = interop::run_study(config);
  return "== fig4.csv\n" + interop::fig4_csv(result) + "== table3.csv\n" +
         interop::table3_csv(result) + "== snapshot.csv\n" + interop::to_snapshot_csv(result) +
         "== fig4\n" + interop::format_fig4(result) + "== table3\n" +
         interop::format_table3(result) + "== findings\n" + interop::format_findings(result) +
         "== failure catalog\n" + interop::format_failure_catalog(result);
}

TEST(CampaignGolden, Study) {
  expect_golden("study_small.golden", [](std::size_t jobs) {
    return render_study(/*gate=*/false, jobs);
  });
}

TEST(CampaignGolden, StudyWithDeployGate) {
  expect_golden("study_small_gate.golden", [](std::size_t jobs) {
    return render_study(/*gate=*/true, jobs);
  });
}

TEST(CampaignGolden, CommunicationOnVersionRounds) {
  expect_golden("communication_small.golden", [](std::size_t jobs) {
    interop::StudyConfig config;
    config.java_spec = small_java();
    config.dotnet_spec = small_dotnet();
    config.versions = kRounds;
    config.threads = jobs;
    const interop::CommunicationResult result = interop::run_communication_study(config);
    return "== communication.csv\n" + interop::communication_csv(result) +
           "== communication\n" + interop::format_communication(result);
  });
}

TEST(CampaignGolden, ChaosOnVersionRounds) {
  expect_golden("chaos_small.golden", [](std::size_t jobs) {
    chaos::ChaosConfig config;
    config.java_spec = small_java();
    config.dotnet_spec = small_dotnet();
    config.plan.seed = 7;
    config.calls_per_pair = 2;
    config.versions = kRounds;
    config.jobs = jobs;
    const chaos::ChaosResult result = chaos::run_chaos_study(config);
    return "== chaos.csv\n" + chaos::chaos_csv(result) + "== chaos\n" +
           chaos::format_chaos(result) + "== chaos.md\n" + chaos::chaos_markdown(result) +
           "== recovery.json\n" + chaos::chaos_recovery_json(result) + "\n";
  });
}

TEST(CampaignGolden, PropcheckWithSabotageAndShrink) {
  expect_golden("propcheck_small.golden", [](std::size_t jobs) {
    gen::GenConfig config;
    config.java_spec = small_java();
    config.dotnet_spec = small_dotnet();
    config.corpus.cases_per_operation = 1;
    config.corpus.sabotage = true;
    config.shrink = true;
    config.jobs = jobs;
    const gen::PropcheckResult result = gen::run_propcheck(config);
    return "== propcheck.json\n" + gen::propcheck_json(result) + "\n== propcheck\n" +
           gen::format_propcheck(result, /*with_shrink=*/true);
  });
}

// --------------------------------------------------- the observer stream

/// The `--log` stream: every test once, in corpus order (server, then
/// service, then client), unsorted.
std::vector<std::string> observed_stream(std::size_t jobs) {
  interop::StudyConfig config = small_study();
  config.threads = jobs;
  std::vector<std::string> lines;
  config.observer = [&lines](const interop::TestRecord& record) {
    lines.push_back(interop::to_json_line(record));
  };
  const interop::StudyResult result = interop::run_study(config);
  EXPECT_EQ(lines.size(), result.total_tests());
  return lines;
}

TEST(StudyEngine, ObserverStreamIsIdenticalAtJobs1And8) {
  const std::vector<std::string> serial = observed_stream(1);
  const std::vector<std::string> parallel = observed_stream(8);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i], serial[i]) << "first difference at line " << i;
  }
}

// ------------------------------------------------------ failing tasks

/// A client tool whose generator throws on every service.
class ThrowingClient final : public frameworks::ClientFramework {
 public:
  std::string name() const override { return "Throwing Client 1.0"; }
  std::string tool() const override { return "throw2java"; }
  code::Language language() const override { return code::Language::kJava; }
  frameworks::GenerationResult generate(const frameworks::SharedDescription&) const override {
    throw std::runtime_error("generator crashed");
  }
};

/// The id of the first task of a run over `rounds`: the task a run that
/// fails on every task names.
std::string first_task_id(const std::vector<frameworks::Round>& rounds) {
  const frameworks::RoundTasks tasks = frameworks::bindable_services(rounds);
  return tasks.ids.empty() ? std::string{} : tasks.ids.front();
}

TEST(StudyEngine, ThrowingClientFailsRunServerCampaignByName) {
  const catalog::TypeCatalog java = catalog::make_java_catalog(small_java());
  const std::vector<frameworks::ServiceSpec> services = frameworks::make_services(java);
  const auto metro = frameworks::make_server("Metro 2.3");
  std::vector<std::unique_ptr<frameworks::ClientFramework>> clients;
  clients.push_back(std::make_unique<ThrowingClient>());
  const std::string task =
      first_task_id({{metro.get(), &services, std::nullopt, metro->name()}});
  ASSERT_FALSE(task.empty());
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    interop::StudyConfig config;
    config.threads = jobs;
    try {
      (void)interop::run_server_campaign(*metro, services, clients, config);
      ADD_FAILURE() << "a quarantined task must fail the run, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'" + task + "'"), std::string::npos) << message;
      EXPECT_NE(message.find("generator crashed"), std::string::npos) << message;
    }
  }
}

/// A metrics clock that counts its reads; reads [from, from + count)
/// throw, the rest return 0.
class BreakingClock final : public obs::Clock {
 public:
  BreakingClock(std::size_t from, std::size_t count) : from_(from), count_(count) {}
  std::uint64_t now_us() const override {
    const std::size_t read = reads_++;
    if (read >= from_ && read - from_ < count_) throw std::runtime_error("clock broke");
    return 0;
  }

 private:
  std::size_t from_;
  std::size_t count_;
  mutable std::atomic<std::size_t> reads_{0};
};

/// A metrics clock that counts the reads its creating thread makes before
/// any other thread reads it.
class FirstForeignReadClock final : public obs::Clock {
 public:
  std::uint64_t now_us() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (std::this_thread::get_id() != owner_) foreign_ = true;
    if (!foreign_) ++own_reads_;
    return 0;
  }
  std::size_t own_reads() const { return own_reads_; }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mutex_;
  mutable bool foreign_ = false;
  mutable std::size_t own_reads_ = 0;
};

TEST(StudyEngine, ThrowingTaskFailsRunStudyByName) {
  // run_study takes no client roster, so the failure comes from inside the
  // tasks through the metrics clock: each task attempt reads it first at
  // its deploy timer. Before it admits a task the run reads it a fixed
  // number of times on the calling thread — measured at 8 jobs, where the
  // tasks run on pool threads — so breaking the next three reads per task
  // quarantines every task at any worker count and leaves the reads after
  // the run calm.
  const catalog::TypeCatalog java = catalog::make_java_catalog(small_java());
  const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog(small_dotnet());
  const auto servers = frameworks::make_servers();
  const std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  const std::vector<frameworks::ServiceSpec> dotnet_services =
      frameworks::make_services(dotnet);
  const std::vector<frameworks::Round> rounds =
      frameworks::make_rounds(servers, java_services, dotnet_services);
  const std::size_t tasks = frameworks::bindable_services(rounds).tasks.size();
  const std::string task = first_task_id(rounds);
  ASSERT_GT(tasks, 1u);

  const FirstForeignReadClock probe;
  obs::Registry probe_registry(&probe);
  interop::StudyConfig probed = small_study();
  probed.threads = 8;
  probed.metrics = &probe_registry;
  (void)interop::run_study(probed);
  ASSERT_GT(probe.own_reads(), 0u);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const BreakingClock clock(probe.own_reads(), 3 * tasks);
    obs::Registry registry(&clock);
    interop::StudyConfig config = small_study();
    config.threads = jobs;
    config.metrics = &registry;
    try {
      (void)interop::run_study(config);
      ADD_FAILURE() << "a quarantined task must fail the run, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'" + task + "'"), std::string::npos) << message;
      EXPECT_NE(message.find("clock broke"), std::string::npos) << message;
    }
  }
}

TEST(StudyEngine, RefusalAtDeployFoldsWithoutTests) {
  // Strict JBossWS passes can_deploy for the async API types, then refuses
  // their operation-less descriptions: tasks that fold as refusals.
  const catalog::TypeCatalog java = catalog::make_java_catalog(small_java());
  const std::vector<frameworks::ServiceSpec> services = frameworks::make_services(java);
  const auto clients = frameworks::make_clients();
  const auto lenient = frameworks::make_server("JBossWS CXF 4.2.3");
  const auto strict = frameworks::make_server("JBossWS CXF 4.2.3", /*remedied=*/true);
  const interop::ServerResult paper =
      interop::run_server_campaign(*lenient, services, clients, interop::StudyConfig{});
  const interop::ServerResult ablated =
      interop::run_server_campaign(*strict, services, clients, interop::StudyConfig{});
  ASSERT_GT(paper.zero_operation_services, 0u);
  EXPECT_EQ(ablated.zero_operation_services, 0u);
  EXPECT_EQ(ablated.deployment_refusals,
            paper.deployment_refusals + paper.zero_operation_services);
  EXPECT_EQ(ablated.services_deployed + ablated.deployment_refusals, ablated.services_created);
  for (const interop::CellResult& cell : ablated.cells) {
    EXPECT_EQ(cell.tests, ablated.services_deployed);
  }
}

// ------------------------------------------------------------ old journals

TEST(StudyEngine, JournalWithoutServiceFactsFailsBeforeAppending) {
  // A journal from the phase-by-phase engine: same header, but its study
  // records carry only the client rows, because that engine took each
  // service's deploy and WS-I facts from its own up-front pass. Folding
  // such a record now would count the service as deployed and compliant.
  const interop::StudyConfig config = small_study();
  const std::string path = ::testing::TempDir() + "wsx_engine_old_study.journal";
  std::remove(path.c_str());
  resilience::Supervision options;
  options.journal.checkpoint_every = 4;
  options.checkpoint_path = path;
  options.trip_after_tasks = 4;
  ASSERT_TRUE(interop::run_study_supervised(config, options).ok());
  std::ostringstream written;
  written << std::ifstream(path).rdbuf();
  Result<resilience::Journal> journal = resilience::Journal::parse(written.str());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  ASSERT_FALSE(journal->entries.empty());

  std::string old_rows;
  for (std::size_t i = 0; i < frameworks::make_clients().size(); ++i) {
    old_rows += std::string(i == 0 ? "" : ",") +
                R"({"gw":false,"ge":false,"cw":false,"ce":false,"art":true,"codes":[]})";
  }
  journal->entries.front().record = R"({"clients":[)" + old_rows + "]}";
  std::string text = journal->header_line() + "\n";
  for (const resilience::JournalEntry& entry : journal->entries) {
    text += resilience::Journal::entry_line(entry) + "\n";
  }
  std::ofstream(path) << text;
  Result<resilience::Journal> old = resilience::Journal::parse(text);
  ASSERT_TRUE(old.ok()) << old.error().message;

  resilience::Supervision resumed;
  resumed.journal = options.journal;
  resumed.checkpoint_path = path;
  resumed.resume = &old.value();
  Result<interop::SupervisedStudyResult> finished =
      interop::run_study_supervised(config, resumed);
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.error().code, "resilience.bad-record");
  for (const char* fact : {"refused", "wsi_failed", "zero_ops"}) {
    EXPECT_NE(finished.error().message.find(fact), std::string::npos)
        << finished.error().message;
  }
  std::ostringstream after;
  after << std::ifstream(path).rdbuf();
  EXPECT_EQ(after.str(), text);  // nothing was appended
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wsx
