// journal_golden_test — one checkpoint journal per supervised campaign,
// written by the engines as they stood before the config and record codecs
// were unified, plus the report each campaign printed for the same config.
//
// The files under tests/data/*_tiny.* were rendered over small_java_spec()
// and small_dotnet_spec(); each journal was tripped after its second block
// (checkpoint_every 4, trip_after 5), so it holds eight task entries:
//   * study;
//   * communication on the strict and shaded version rounds;
//   * chaos on the same rounds with a task deadline that quarantines one of
//     the journaled tasks;
//   * propcheck with sabotage and shrinking;
//   * lint-corpus and predict-corpus, whose reports were rendered by the
//     plain corpus drivers the task engine replaced.
//
// The pack pins five things: a journal written before the change still
// resumes, at jobs 1 and 8, to the report the straight run printed; every
// config fingerprint and every task record decodes and re-encodes to the
// same bytes; the lint and predict corpus passes still render their
// goldens at any jobs, straight and under a budget (the *_budget_*_tiny
// goldens, rendered by the engine before corpus tasks deployed their own
// services); and each corpus pass exports the metrics and span tree of the
// *_obs_tiny goldens, rendered while each pass had a function of its own.
// On a mismatch the rendering is written to the test temp dir
// (`<name>.actual`) so it can be inspected with diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "analysis/corpus.hpp"
#include "analysis/predict.hpp"
#include "analysis/registry.hpp"
#include "analysis/substitution.hpp"
#include "analysis/supervised_corpus.hpp"
#include "analysis/supervised_predict.hpp"
#include "chaos/campaign.hpp"
#include "chaos/supervised.hpp"
#include "common/codec.hpp"
#include "frameworks/registry.hpp"
#include "gen/campaign.hpp"
#include "gen/supervised.hpp"
#include "interop/communication.hpp"
#include "interop/report.hpp"
#include "interop/report_formats.hpp"
#include "interop/supervised.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/journal.hpp"
#include "resilience/supervisor.hpp"
#include "test_helpers.hpp"

namespace wsx {
namespace {

namespace predict = analysis::predict;

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(WSX_TEST_DATA_DIR) + "/" + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compares a rendering with tests/data/`name`; on a mismatch the rendering
/// is kept next to the test temp dir for diffing.
void expect_data(const std::string& name, const std::string& actual, const std::string& where) {
  const std::string want = read_data(name);
  if (actual == want) return;
  const std::string path = ::testing::TempDir() + name + ".actual";
  std::ofstream(path) << actual;
  ADD_FAILURE() << (want.empty() ? "missing golden file tests/data/"
                                 : "rendering differs from tests/data/")
                << name << " " << where << "; rendered: " << path;
}

// --- Renderings: the report surfaces each campaign prints -----------------

std::string render(const interop::StudyResult& result) {
  return "== fig4.csv\n" + interop::fig4_csv(result) + "== table3.csv\n" +
         interop::table3_csv(result) + "== fig4\n" + interop::format_fig4(result) +
         "== table3\n" + interop::format_table3(result) + "== findings\n" +
         interop::format_findings(result) + "== failure catalog\n" +
         interop::format_failure_catalog(result);
}

std::string render(const interop::CommunicationResult& result) {
  return "== communication.csv\n" + interop::communication_csv(result) + "== communication\n" +
         interop::format_communication(result);
}

std::string render(const chaos::ChaosResult& result) {
  return "== chaos.csv\n" + chaos::chaos_csv(result) + "== chaos\n" +
         chaos::format_chaos(result) + "== recovery.json\n" +
         chaos::chaos_recovery_json(result) + "\n";
}

std::string render(const gen::PropcheckResult& result) {
  return "== propcheck.json\n" + gen::propcheck_json(result) + "\n== propcheck\n" +
         gen::format_propcheck(result, /*with_shrink=*/true);
}

std::string render(const analysis::CorpusReport& report) {
  const std::vector<analysis::Finding> findings = report.all_findings();
  return "== report\n" + analysis::format_report(report) + "== findings\n" +
         analysis::format_findings(findings) + analysis::summarize(findings) + "\n";
}

/// The predict report, the FNV-1a of every record's JSON line (the serve
/// oracle's fingerprint), and the substitution index.
std::string render(const predict::PredictReport& report) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const predict::ServicePredictionRecord& record : report.services) {
    for (const char c : predict::record_json(record) + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return "== report\n" + predict::format_predict_report(report) + "== records fnv1a\n" + hex +
         "\n== index\n" + predict::index_json(predict::build_index(report)) + "\n";
}

// --- Resuming a golden journal --------------------------------------------

/// A golden journal, copied to a scratch file that the resumed run appends
/// to, and parsed.
struct GoldenJournal {
  std::string path;
  resilience::Journal journal;

  GoldenJournal(const std::string& stem, std::size_t jobs)
      : path(::testing::TempDir() + "wsx_golden_" + stem + "_" + std::to_string(jobs) +
             ".journal") {
    const std::string text = read_data(stem + "_tiny.journal");
    std::ofstream(path) << text;
    Result<resilience::Journal> parsed = resilience::Journal::parse(text);
    EXPECT_TRUE(parsed.ok()) << stem << ": " << parsed.error().message;
    if (parsed.ok()) journal = std::move(parsed.value());
  }
  ~GoldenJournal() { std::remove(path.c_str()); }

  /// Engine options resuming this journal under its own knobs.
  template <typename Options>
  Options resume() const {
    Options options;
    options.journal = journal.options;
    options.checkpoint_path = path;
    options.resume = &journal;
    return options;
  }
};

/// Resumes the golden journal `<stem>_tiny.journal` of `campaign` at jobs 1
/// and 8 through `finish` and compares each rendering with
/// `<stem>_tiny.golden`.
void expect_resumes(const std::string& stem, const std::string& campaign,
                    const std::function<std::string(const GoldenJournal&, std::size_t)>& finish) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const GoldenJournal golden(stem, jobs);
    ASSERT_EQ(golden.journal.campaign, campaign);
    ASSERT_EQ(golden.journal.entries.size(), 8u);
    expect_data(stem + "_tiny.golden", finish(golden, jobs),
                "after resume at jobs=" + std::to_string(jobs));
  }
}

/// The resumed run's rendering, or "" after recording a failed run.
template <typename Supervised, typename Render>
std::string finished(const Result<Supervised>& run, const Render& render_result) {
  if (!run.ok()) {
    ADD_FAILURE() << run.error().message;
    return {};
  }
  EXPECT_FALSE(run->supervisor.tripped);
  EXPECT_EQ(run->supervisor.resumed, 8u);
  EXPECT_EQ(run->supervisor.not_admitted, 0u);
  return render_result(*run);
}

TEST(JournalGolden, StudyResumesToTheStraightReport) {
  expect_resumes("study", "study", [](const GoldenJournal& golden, std::size_t jobs) {
    Result<interop::StudyConfig> config =
        interop::study_config_from_json(golden.journal.config_json);
    if (!config.ok()) return config.error().message;
    auto options = golden.resume<resilience::Supervision>();
    config->threads = jobs;
    return finished(interop::run_study_supervised(*config, options),
                    [](const interop::SupervisedStudyResult& run) { return render(run.study); });
  });
}

TEST(JournalGolden, CommunicationResumesToTheStraightReport) {
  expect_resumes("communication", "communication", [](const GoldenJournal& golden, std::size_t jobs) {
    Result<interop::StudyConfig> config =
        interop::communication_config_from_json(golden.journal.config_json);
    if (!config.ok()) return config.error().message;
    EXPECT_EQ(config->versions.size(), 2u);
    auto options = golden.resume<resilience::Supervision>();
    config->threads = jobs;
    return finished(interop::run_communication_supervised(*config, options),
                    [](const interop::SupervisedCommunicationResult& run) {
                      return render(run.communication);
                    });
  });
}

TEST(JournalGolden, ChaosWithDeadlineQuarantineResumesToTheStraightReport) {
  expect_resumes("chaos", "chaos", [](const GoldenJournal& golden, std::size_t jobs) {
    EXPECT_NE(golden.journal.options.task_deadline_ms, 0u);
    std::size_t quarantined = 0;
    for (const resilience::JournalEntry& entry : golden.journal.entries) {
      if (entry.state == resilience::JournalState::kQuarantined) {
        ++quarantined;
        EXPECT_TRUE(entry.timed_out) << entry.id;
      }
    }
    EXPECT_EQ(quarantined, 1u);
    Result<chaos::ChaosConfig> config = chaos::chaos_config_from_json(golden.journal.config_json);
    if (!config.ok()) return config.error().message;
    config->jobs = jobs;
    return finished(chaos::run_chaos_supervised(*config,
                                                golden.resume<resilience::Supervision>()),
                    [](const chaos::SupervisedChaosResult& run) { return render(run.chaos); });
  });
}

TEST(JournalGolden, PropcheckWithSabotageAndShrinkResumesToTheStraightReport) {
  expect_resumes("propcheck", "propcheck", [](const GoldenJournal& golden, std::size_t jobs) {
    Result<gen::GenConfig> config = gen::gen_config_from_json(golden.journal.config_json);
    if (!config.ok()) return config.error().message;
    EXPECT_TRUE(config->corpus.sabotage);
    EXPECT_TRUE(config->shrink);
    config->jobs = jobs;
    return finished(gen::run_propcheck_supervised(*config,
                                                  golden.resume<resilience::Supervision>()),
                    [](const gen::SupervisedGenResult& run) { return render(run.propcheck); });
  });
}

TEST(JournalGolden, LintCorpusResumesToTheStraightReport) {
  expect_resumes("lint_corpus", "lint-corpus", [](const GoldenJournal& golden, std::size_t jobs) {
    Result<analysis::CorpusOptions> options =
        analysis::corpus_config_from_json(golden.journal.config_json);
    if (!options.ok()) return options.error().message;
    options->jobs = jobs;
    return finished(analysis::analyze_corpus_supervised(
                        *options, golden.resume<resilience::Supervision>()),
                    [](const analysis::SupervisedCorpusResult& run) { return render(run.report); });
  });
}

TEST(JournalGolden, PredictCorpusResumesToTheStraightReport) {
  expect_resumes("predict_corpus", "predict-corpus", [](const GoldenJournal& golden, std::size_t jobs) {
    Result<predict::PredictOptions> options =
        predict::predict_config_from_json(golden.journal.config_json);
    if (!options.ok()) return options.error().message;
    options->jobs = jobs;
    return finished(
        predict::predict_corpus_supervised(*options,
                                           golden.resume<resilience::Supervision>()),
        [](const predict::SupervisedPredictResult& run) { return render(run.report); });
  });
}

// --- Config fingerprints --------------------------------------------------

TEST(JournalGolden, EveryConfigFingerprintReencodesByteForByte) {
  const auto header_config = [](const std::string& stem) {
    Result<resilience::Journal> journal =
        resilience::Journal::parse(read_data(stem + "_tiny.journal"));
    EXPECT_TRUE(journal.ok()) << stem;
    return journal.ok() ? journal->config_json : std::string{};
  };
  const std::string study = header_config("study");
  EXPECT_EQ(interop::study_config_json(*interop::study_config_from_json(study)), study);
  const std::string communication = header_config("communication");
  EXPECT_EQ(interop::communication_config_json(
                *interop::communication_config_from_json(communication)),
            communication);
  const std::string chaos = header_config("chaos");
  EXPECT_EQ(chaos::chaos_config_json(*chaos::chaos_config_from_json(chaos)), chaos);
  const std::string propcheck = header_config("propcheck");
  EXPECT_EQ(gen::gen_config_json(*gen::gen_config_from_json(propcheck)), propcheck);
  const std::string lint = header_config("lint_corpus");
  EXPECT_EQ(analysis::corpus_config_json(*analysis::corpus_config_from_json(lint)), lint);
  const std::string predict_config = header_config("predict_corpus");
  EXPECT_EQ(predict::predict_config_json(*predict::predict_config_from_json(predict_config)),
            predict_config);
}

// --- The retired parse_cache setting --------------------------------------

/// Replaces the one `"parse_cache":true` in `text` with `false`, the bytes a
/// run with the parse cache switched off wrote before the switch was
/// retired.
std::string with_cache_off(std::string text) {
  const std::string on = "\"parse_cache\":true";
  const std::size_t at = text.find(on);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(text.find(on, at + 1), std::string::npos);
  if (at != std::string::npos) text.replace(at, on.size(), "\"parse_cache\":false");
  return text;
}

/// Decoding the golden journal's config with the cache off fails under
/// resilience.bad-config naming the setting; as written, it re-encodes
/// byte for byte.
template <typename Decode, typename Encode>
void expect_cache_off_refused(const std::string& stem, Decode decode, Encode encode) {
  Result<resilience::Journal> journal =
      resilience::Journal::parse(read_data(stem + "_tiny.journal"));
  ASSERT_TRUE(journal.ok()) << stem;
  const auto off = decode(with_cache_off(journal->config_json));
  ASSERT_FALSE(off.ok()) << stem;
  EXPECT_EQ(off.error().code, "resilience.bad-config") << stem;
  EXPECT_NE(off.error().message.find("parse_cache"), std::string::npos)
      << stem << ": " << off.error().message;
  const auto on = decode(journal->config_json);
  ASSERT_TRUE(on.ok()) << stem << ": " << on.error().message;
  EXPECT_EQ(encode(*on), journal->config_json) << stem;
}

TEST(RetiredParseCache, ConfigsWrittenWithTheCacheOffAreRefusedByName) {
  expect_cache_off_refused("study", interop::study_config_from_json, interop::study_config_json);
  expect_cache_off_refused("communication", interop::communication_config_from_json,
                           interop::communication_config_json);
  expect_cache_off_refused("chaos", chaos::chaos_config_from_json, chaos::chaos_config_json);
  expect_cache_off_refused("propcheck", gen::gen_config_from_json, gen::gen_config_json);
}

TEST(RetiredParseCache, AJournalWrittenWithTheCacheOffFailsBeforeAppending) {
  const std::string text = with_cache_off(read_data("propcheck_tiny.journal"));
  const std::string path = ::testing::TempDir() + "wsx_golden_propcheck_cache_off.journal";
  std::ofstream(path) << text;
  Result<resilience::Journal> journal = resilience::Journal::parse(text);
  ASSERT_TRUE(journal.ok()) << journal.error().message;

  // `resume` refuses the header's config (see above); nor does the engine
  // fold the journal under the config it would read with the cache on: the
  // fingerprint differs, so the resume fails up front.
  Result<resilience::Journal> golden =
      resilience::Journal::parse(read_data("propcheck_tiny.journal"));
  ASSERT_TRUE(golden.ok()) << golden.error().message;
  Result<gen::GenConfig> on = gen::gen_config_from_json(golden->config_json);
  ASSERT_TRUE(on.ok()) << on.error().message;
  resilience::Supervision options;
  options.journal = journal->options;
  options.checkpoint_path = path;
  options.resume = &journal.value();
  Result<gen::SupervisedGenResult> run = gen::run_propcheck_supervised(*on, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, "resilience.resume-mismatch");
  std::ifstream after(path);
  std::ostringstream bytes;
  bytes << after.rdbuf();
  EXPECT_EQ(bytes.str(), text);
  std::remove(path.c_str());
}

// --- Task records ---------------------------------------------------------

/// Decodes `text` into `record` and encodes it again; the decode error
/// instead when it fails.
template <typename Record>
std::string reencode(const std::string& text, Record& record) {
  const Status decoded = codec::decode(text, record, "test.bad-record", "golden record");
  return decoded.ok() ? codec::encode(record) : decoded.error().message;
}

TEST(JournalGolden, EveryTaskRecordReencodesByteForByte) {
  const std::size_t clients = frameworks::make_clients().size();
  const auto expect_records = [](const std::string& stem, std::size_t want,
                                 const std::function<std::string(const std::string&)>& again) {
    Result<resilience::Journal> journal =
        resilience::Journal::parse(read_data(stem + "_tiny.journal"));
    ASSERT_TRUE(journal.ok()) << stem;
    std::size_t records = 0;
    for (const resilience::JournalEntry& entry : journal->entries) {
      if (entry.state != resilience::JournalState::kCompleted) continue;
      ++records;
      EXPECT_EQ(again(entry.record), entry.record) << stem << " " << entry.id;
    }
    EXPECT_EQ(records, want) << stem;
  };
  expect_records("study", 8, [&](const std::string& text) {
    std::vector<interop::FoldRow> rows(clients);
    interop::StudyRecord record{{}, rows};
    return reencode(text, record);
  });
  expect_records("communication", 8, [&](const std::string& text) {
    std::vector<interop::InvocationOutcome> rows(clients);
    interop::CommunicationRecord record{0, rows};
    return reencode(text, record);
  });
  expect_records("chaos", 7, [&](const std::string& text) {
    std::vector<chaos::ChainDelta> rows(clients);
    chaos::ChaosRecord record{rows};
    return reencode(text, record);
  });
  expect_records("propcheck", 8, [&](const std::string& text) {
    std::vector<gen::PairDelta> rows(clients);
    gen::PropcheckRecord record{rows};
    return reencode(text, record);
  });
  expect_records("lint_corpus", 8, [](const std::string& text) {
    analysis::ServiceAnalysis record;
    return reencode(text, record);
  });
  expect_records("predict_corpus", 8, [](const std::string& text) {
    Result<predict::ServicePredictionRecord> record = predict::record_from_json(text);
    return record.ok() ? predict::record_json(*record) : record.error().message;
  });
}

// --- The corpus passes at any worker count ---------------------------------

TEST(JournalGolden, LintCorpusRendersItsGoldenAtJobs1And8) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    analysis::CorpusOptions options;
    options.java_spec = testing::small_java_spec();
    options.dotnet_spec = testing::small_dotnet_spec();
    options.jobs = jobs;
    expect_data("lint_corpus_tiny.golden", render(analysis::analyze_corpus(options)),
                "at jobs=" + std::to_string(jobs));
  }
}

TEST(JournalGolden, PredictCorpusRendersItsGoldenAtJobs1And8) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    predict::PredictOptions options;
    options.java_spec = testing::small_java_spec();
    options.dotnet_spec = testing::small_dotnet_spec();
    options.jobs = jobs;
    expect_data("predict_corpus_tiny.golden", render(predict::predict_corpus(options)),
                "at jobs=" + std::to_string(jobs));
  }
}

// --- The corpus passes' metrics and spans -----------------------------------

/// The deterministic metric export, the span-tree shape and the span
/// records (names, parents and annotations; every time is zero) of one
/// corpus pass under a frozen clock, at jobs 1 and 8, compared with
/// `<stem>_obs_tiny.golden`. `run(jobs, tracer, metrics)` runs the pass.
template <typename Run>
void expect_obs_golden(const std::string& stem, Run run) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const obs::FixedClock frozen;
    obs::Tracer tracer(&frozen);
    obs::Registry metrics(&frozen);
    run(jobs, tracer, metrics);
    expect_data(stem + "_obs_tiny.golden",
                "== metrics\n" + metrics.to_json(obs::Export::kDeterministic) +
                    "\n== spans\n" + tracer.shape() + "\n== span records\n" +
                    tracer.to_jsonl(),
                "at jobs=" + std::to_string(jobs));
  }
}

TEST(CorpusObsGolden, LintCorpusExportsItsMetricsAndSpans) {
  expect_obs_golden("lint_corpus", [](std::size_t jobs, obs::Tracer& tracer,
                                      obs::Registry& metrics) {
    analysis::CorpusOptions options;
    options.java_spec = testing::small_java_spec();
    options.dotnet_spec = testing::small_dotnet_spec();
    options.jobs = jobs;
    options.tracer = &tracer;
    options.metrics = &metrics;
    (void)analysis::analyze_corpus(options);
  });
}

TEST(CorpusObsGolden, PredictCorpusExportsItsMetricsAndSpans) {
  expect_obs_golden("predict_corpus", [](std::size_t jobs, obs::Tracer& tracer,
                                         obs::Registry& metrics) {
    predict::PredictOptions options;
    options.java_spec = testing::small_java_spec();
    options.dotnet_spec = testing::small_dotnet_spec();
    options.jobs = jobs;
    options.tracer = &tracer;
    options.metrics = &metrics;
    (void)predict::predict_corpus(options);
  });
}

// --- Budgeted corpus runs ---------------------------------------------------
//
// A corpus task charges one virtual ms, so a deadline cannot quarantine it:
// a budget is the only way lint-corpus and predict-corpus degrade. Each
// golden was rendered with its supervisor section over the small specs,
// in blocks of 8 tasks, once under a budget of 20 tasks and once under a
// budget of 30 virtual ms.

/// Runs a budgeted corpus campaign — `run(jobs, journal, metrics,
/// supervisor)` returns its report's rendering — under both budgets at jobs
/// 1 and 8, and compares each rendering plus its supervisor section with
/// `<stem>_budget_<tasks|ms>_tiny.golden`. A task that is not admitted never
/// deploys: `<prefix>.step.deploy_us` observes exactly the executed tasks.
template <typename Run>
void expect_budget_goldens(const std::string& stem, const std::string& prefix, Run run) {
  for (const std::string budget : {"tasks", "ms"}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
      const std::string where = "under budget_" + budget + " at jobs=" + std::to_string(jobs);
      resilience::JournalOptions journal;
      journal.checkpoint_every = 8;
      if (budget == "tasks") journal.budget_tasks = 20;
      if (budget == "ms") journal.budget_ms = 30;
      obs::Registry metrics;
      resilience::SupervisorReport supervisor;
      const std::string report = run(jobs, journal, metrics, supervisor);
      EXPECT_TRUE(supervisor.degraded) << where;
      EXPECT_GT(supervisor.not_admitted, 0u) << where;
      EXPECT_EQ(metrics.histogram(prefix + ".step.deploy_us").count(), supervisor.executed)
          << where;
      expect_data(stem + "_budget_" + budget + "_tiny.golden",
                  report + "== supervisor\n" + resilience::supervisor_markdown(supervisor),
                  where);
    }
  }
}

TEST(CorpusBudget, LintCorpusRendersItsBudgetGoldensAtJobs1And8) {
  expect_budget_goldens("lint_corpus", "lint",
                        [](std::size_t jobs, const resilience::JournalOptions& journal,
                           obs::Registry& metrics, resilience::SupervisorReport& supervisor) {
                          analysis::CorpusOptions options;
                          options.java_spec = testing::small_java_spec();
                          options.dotnet_spec = testing::small_dotnet_spec();
                          options.jobs = jobs;
                          options.metrics = &metrics;
                          resilience::Supervision supervision;
                          supervision.journal = journal;
                          Result<analysis::SupervisedCorpusResult> run =
                              analysis::analyze_corpus_supervised(options, supervision);
                          if (!run.ok()) return run.error().message;
                          supervisor = run->supervisor;
                          return render(run->report);
                        });
}

TEST(CorpusBudget, JoinedPredictCorpusRendersItsBudgetGoldensAtJobs1And8) {
  expect_budget_goldens("predict_corpus", "predict",
                        [](std::size_t jobs, const resilience::JournalOptions& journal,
                           obs::Registry& metrics, resilience::SupervisorReport& supervisor) {
                          predict::PredictOptions options;
                          options.java_spec = testing::small_java_spec();
                          options.dotnet_spec = testing::small_dotnet_spec();
                          options.jobs = jobs;
                          options.metrics = &metrics;
                          resilience::Supervision supervision;
                          supervision.journal = journal;
                          Result<predict::SupervisedPredictResult> run =
                              predict::predict_corpus_supervised(options, supervision);
                          if (!run.ok()) return run.error().message;
                          EXPECT_TRUE(run->report.joined);
                          supervisor = run->supervisor;
                          return render(run->report);
                        });
}

}  // namespace
}  // namespace wsx
