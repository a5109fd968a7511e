// wsinterop — the command-line interoperability assessment tool.
//
// The paper released its harness "so that developers and researchers can
// extend this study"; this binary is that tool for the reproduction:
//
//   wsinterop run [--scale PCT] [--threads N] [--format text|csv|markdown]
//       reruns the campaign and prints Fig.4 + Table III + findings
//   wsinterop lint FILE [--strict]
//       WS-I Basic Profile check of a WSDL file
//   wsinterop describe SERVER TYPE
//       prints the WSDL a server publishes for a native type
//   wsinterop test SERVER TYPE CLIENT
//       drives one (service, client) pair through steps 1-3
//   wsinterop fuzz [--corpus N]
//       WSDL robustness fuzzing across all client tools
//   wsinterop communicate
//       the Communication+Execution extension study
//   wsinterop chaos [--seed N] [--rate PCT] [--faults LIST] [--calls N]
//       wire-fault resilience study over the faulty wire
//   wsinterop propcheck [--seed N] [--cases N] [--shrink] [--sabotage]
//       WSDL-guided property-based test generation over the communication
//       phase, with shrinking of any counterexample to a local minimum
//   wsinterop profile [--scale PCT] [--jobs N]
//       sized-down study with tracing on; prints the phase breakdown
//   wsinterop predict SERVER TYPE | --corpus [--index OUT.json]
//       static compatibility prediction (no generation/compilation run);
//       --corpus scores the predictions against the dynamic study
//   wsinterop substitute --client X --service Y --index FILE [--top K]
//       ranked replacement services from a serialized substitution index
//   wsinterop list
//       available server and client frameworks
//   wsinterop resume JOURNAL [--jobs N] [--format ...]
//       finishes an interrupted supervised campaign from its checkpoint
//       journal; the final report is byte-identical to a straight run
//
// Every campaign verb accepts --trace=FILE.jsonl (canonical span tree,
// one JSON object per line) and --metrics=FILE.json (counter/gauge/
// histogram export); see docs/OBSERVABILITY.md. The six supervised
// campaign verbs (run, communicate, chaos, propcheck, lint --corpus,
// predict --corpus) additionally accept the resilience flags (--checkpoint,
// --checkpoint-every, --task-deadline-ms, --quarantine-after,
// --budget-ms, --budget-tasks); see docs/RESILIENCE.md.
#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/corpus.hpp"
#include "analysis/predict.hpp"
#include "analysis/substitution.hpp"
#include "analysis/supervised_corpus.hpp"
#include "analysis/supervised_predict.hpp"
#include "chaos/campaign.hpp"
#include "chaos/supervised.hpp"
#include "analysis/registry.hpp"
#include "analysis/sarif.hpp"
#include "codemodel/render.hpp"
#include "common/pool.hpp"
#include "common/strings.hpp"
#include "compilers/compiler.hpp"
#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "fuzz/campaign.hpp"
#include "gen/campaign.hpp"
#include "gen/supervised.hpp"
#include "interop/communication.hpp"
#include "interop/persistence.hpp"
#include "interop/report.hpp"
#include "interop/report_formats.hpp"
#include "interop/scorecard.hpp"
#include "interop/study.hpp"
#include "interop/supervised.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/journal.hpp"
#include "resilience/supervisor.hpp"
#include "serve/daemon.hpp"
#include "serve/loadgen.hpp"
#include "serve/oracle.hpp"
#include "serve/protocol.hpp"
#include "serve/tcp.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"

using namespace wsx;

namespace {

int usage() {
  std::cerr << "usage: wsinterop "
               "<run|lint|describe|test|fuzz|communicate|chaos|propcheck|profile|predict|"
               "substitute|serve|loadgen|scorecard|diff|resume|list> [options]\n"
               "  run         [--scale PCT] [--threads N] [--format text|csv|markdown]\n"
               "              [--log FILE.jsonl] [--snapshot FILE.csv]\n"
               "  diff        BEFORE.csv AFTER.csv\n"
               "  lint        FILE... | --corpus [--scale PCT] [--join-study]\n"
               "              [--strict] [--jobs N] [--sarif OUT.json]\n"
               "              [--baseline FILE] [--write-baseline FILE] [--disable ID,...]\n"
               "  describe    SERVER TYPE\n"
               "  test        SERVER TYPE CLIENT [--dump]\n"
               "  fuzz        [--corpus N]\n"
               "  communicate [--scale PCT] [--threads N] [--versions POLICY,...]\n"
               "  chaos       [--seed N] [--rate PCT] [--faults KIND,...] [--burst N]\n"
               "              [--calls N] [--scale PCT] [--jobs N] [--csv FILE]\n"
               "              [--versions POLICY,...] [--format text|csv|markdown|json]\n"
               "  propcheck   [--seed N] [--cases N] [--max-depth N] [--scale PCT]\n"
               "              [--jobs N] [--shrink] [--no-shrink] [--sabotage]\n"
               "              [--format text|json]\n"
               "              (property-based corpus over the communication phase;\n"
               "              exit 3 when a property violation is found)\n"
               "  profile     [--scale PCT] [--jobs N]\n"
               "  predict     SERVER TYPE | --corpus [--scale PCT] [--jobs N] [--no-join]\n"
               "              [--shape simple-echo|crud] [--index OUT.json]\n"
               "              [--min-precision PCT] [--min-recall PCT]\n"
               "              (exit 3 when a joined corpus run misses an accuracy floor)\n"
               "  substitute  --client NAME --service [SERVER/]SERVICE --index FILE\n"
               "              [--top K]\n"
               "  serve       [--scale PCT] [--shape S] [--jobs N] [--cache FILE.journal]\n"
               "              [--resume] [--trip-after N] [--probe N] [--requests FILE]\n"
               "              [--lanes N] [--queue N] [--tcp PORT --connections N] [--stats]\n"
               "              (oracle daemon; exit 75 when the crash drill trips)\n"
               "  loadgen     [--scale PCT] [--seed N] [--queries N] [--lanes N] [--queue N]\n"
               "              [--cache FILE.journal] [--out BENCH_serve.json]\n"
               "              [--check BASELINE.json] [--tolerance PCT]\n"
               "              (overload drill; exit 3 on invariant or baseline miss)\n"
               "  scorecard   [--chaos] [--jobs N] [--versions POLICY,...]\n"
               "  resume      JOURNAL [--jobs N] [--format ...] [--trip-after N]\n"
               "  list\n"
               "--versions sweeps each server under the named version-validation\n"
               "policies (strict, relaxed, shaded) while clients emit the hybrid\n"
               "1.1-with-1.2-era-header profile their own policy implies; see\n"
               "docs/VERSIONS.md (run accepts the flag but steps 1-3 are wire-free)\n"
               "campaign verbs (run, lint --corpus, communicate, chaos, propcheck,\n"
               "profile, predict --corpus) also accept --trace FILE.jsonl and\n"
               "--metrics FILE.json\n"
               "supervised verbs (run, lint --corpus, communicate, chaos, propcheck,\n"
               "predict --corpus) also accept the resilience flags: --checkpoint FILE.journal,\n"
               "--checkpoint-every N, --task-deadline-ms N, --quarantine-after N,\n"
               "--budget-ms N, --budget-tasks N, --trip-after N (exit 75 when the run\n"
               "trips)\n";
  return 2;
}

/// Parses a --jobs/--threads value and enforces the shared worker-count
/// range (0 = auto, explicit counts capped at kMaxWorkers). Out-of-range
/// values are a usage error, not a silent thread explosion.
bool parse_jobs(const std::string& text, std::size_t& out) {
  if (!parse_count(text, out)) return false;
  if (!wsx::valid_worker_count(out)) {
    std::cerr << "wsinterop: worker count " << out << " out of range (max "
              << wsx::kMaxWorkers << ", 0 = auto)\n";
    return false;
  }
  return true;
}

/// Parses a comma-separated --versions list ("strict,relaxed,shaded") into
/// version-validation policies. An unknown spelling is a usage error that
/// lists the valid ones, mirroring --faults.
bool parse_versions(const std::string& text, std::vector<frameworks::VersionPolicy>& out) {
  std::stringstream names(text);
  std::string name;
  while (std::getline(names, name, ',')) {
    const std::optional<frameworks::VersionPolicy> policy =
        frameworks::parse_version_policy(name);
    if (!policy.has_value()) {
      std::cerr << "wsinterop: unknown version policy '" << name << "'; policies are:";
      for (const frameworks::VersionPolicy known : frameworks::all_version_policies()) {
        std::cerr << ' ' << frameworks::to_string(known);
      }
      std::cerr << "\n";
      return false;
    }
    out.push_back(*policy);
  }
  if (out.empty()) {
    std::cerr << "wsinterop: --versions needs at least one policy\n";
    return false;
  }
  return true;
}

/// Parses a --shape value; an unknown spelling is an error that lists the
/// shapes.
bool parse_shape(const std::string& text, frameworks::ServiceShape& out) {
  if (frameworks::from_string(text, out)) return true;
  std::cerr << "wsinterop: unknown shape '" << text << "' (shapes: "
            << frameworks::to_string(frameworks::ServiceShape::kSimpleEcho) << ", "
            << frameworks::to_string(frameworks::ServiceShape::kCrud) << ")\n";
  return false;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "wsinterop: cannot open " << path << " for writing\n";
    return false;
  }
  file << text;
  return true;
}

/// Observability sinks shared by the campaign verbs: allocated only when
/// the matching flag was given, exported on scope exit by flush().
struct ObsSinks {
  std::string trace_path;
  std::string metrics_path;
  obs::Tracer tracer;
  obs::Registry registry;

  obs::Tracer* tracer_or_null() { return trace_path.empty() ? nullptr : &tracer; }
  obs::Registry* metrics_or_null() { return metrics_path.empty() ? nullptr : &registry; }

  /// Writes the requested export files; true on success.
  bool flush() {
    if (!trace_path.empty() && !write_text_file(trace_path, tracer.to_jsonl())) {
      return false;
    }
    if (!metrics_path.empty() &&
        !write_text_file(metrics_path, registry.to_json() + "\n")) {
      return false;
    }
    return true;
  }

  /// Consumes "--trace FILE" / "--metrics FILE" at args[i]; returns true
  /// and advances i when the argument was one of ours.
  bool consume(const std::vector<std::string>& args, std::size_t& i) {
    if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
      return true;
    }
    if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
      return true;
    }
    return false;
  }
};

/// The resilience supervisor flags shared by the supervised campaign verbs
/// (run, communicate, chaos, propcheck, lint --corpus, predict --corpus).
/// Any one of them makes the verb report the supervisor's coverage after
/// its result; verbs without a supervisor never consume them, so they fall
/// through to the usage error there.
struct ResilienceFlags {
  /// What the flags ask of the supervisor; `resume` sets the journal to
  /// resume from.
  resilience::Supervision supervision;
  bool any = false;   ///< a resilience flag was given
  bool bad = false;   ///< ...but its value was missing or malformed

  bool enabled() const { return any; }

  /// Consumes one resilience flag at args[i]; returns true and advances i
  /// when the argument was one of ours (check `bad` afterwards).
  bool consume(const std::vector<std::string>& args, std::size_t& i) {
    const auto count_value = [&](auto& out) {
      any = true;
      std::size_t value = 0;
      if (i + 1 >= args.size() || !parse_count(args[i + 1], value)) {
        bad = true;
        return;
      }
      ++i;
      out = static_cast<std::remove_reference_t<decltype(out)>>(value);
    };
    resilience::JournalOptions& journal = supervision.journal;
    if (args[i] == "--checkpoint") {
      any = true;
      if (i + 1 >= args.size()) {
        bad = true;
      } else {
        supervision.checkpoint_path = args[++i];
      }
      return true;
    }
    if (args[i] == "--checkpoint-every") {
      count_value(journal.checkpoint_every);
      return true;
    }
    if (args[i] == "--task-deadline-ms") {
      count_value(journal.task_deadline_ms);
      return true;
    }
    if (args[i] == "--quarantine-after") {
      count_value(journal.quarantine_after);
      return true;
    }
    if (args[i] == "--budget-ms") {
      count_value(journal.budget_ms);
      return true;
    }
    if (args[i] == "--budget-tasks") {
      count_value(journal.budget_tasks);
      return true;
    }
    if (args[i] == "--trip-after") {
      count_value(supervision.trip_after_tasks);
      return true;
    }
    return false;
  }
};

/// Runs a supervised campaign's engine with the sinks attached and prints
/// its report: checks the one run (a plain run promises full coverage),
/// flushes the sinks and prints through the verb's printer, which returns
/// the exit code (1, a failed output file, ends it there). A supervised run
/// then appends the supervisor section (JSON after csv/json output) and
/// exits 75 (EX_TEMPFAIL) when it tripped: the journal has the partial state.
template <typename Config, typename Supervised, typename Print>
int finish_campaign(Result<Supervised> (*engine)(const Config&, const resilience::Supervision&),
                    Config config, const ResilienceFlags& res, ObsSinks& sinks,
                    const std::string& format, Print print) {
  config.tracer = sinks.tracer_or_null();
  config.metrics = sinks.metrics_or_null();
  const Result<Supervised> run = engine(config, res.supervision);
  const bool supervised = res.enabled();
  std::string error;
  if (!run.ok()) {
    error = run.error().message;
  } else if (!supervised) {
    error = resilience::coverage_gap(run->supervisor);
  }
  if (!error.empty()) {
    std::cerr << "wsinterop: " << error << "\n";
    return 1;
  }
  if (!sinks.flush()) return 1;
  const int rc = print(*run);
  if (rc == 1 || !supervised) return rc;
  if (format == "csv" || format == "json") {
    std::cout << "\n" << resilience::supervisor_json(run->supervisor) << "\n";
  } else {
    std::cout << "\n" << resilience::supervisor_markdown(run->supervisor);
  }
  return run->supervisor.tripped ? 75 : rc;
}

/// Scales both population specs to roughly PCT percent of the paper's.
void apply_scale(catalog::JavaCatalogSpec& java, catalog::DotNetCatalogSpec& dotnet,
                 std::size_t percent) {
  java = catalog::scaled(java, percent);
  dotnet = catalog::scaled(dotnet, percent);
}

// The supervised campaigns, each shared by its verb and by `resume` of its
// journal: run the engine under the resilience flags (`resume` passes the
// journal as their resume source) and print with the verb's printer.

/// The study: the --snapshot file when asked for, then the report in
/// `format`.
int study_campaign(const interop::StudyConfig& config, const ResilienceFlags& res,
                   ObsSinks& sinks, const std::string& format,
                   const std::string& snapshot_path = "") {
  return finish_campaign(
      interop::run_study_supervised, config, res, sinks, format,
      [&](const interop::SupervisedStudyResult& run) {
        const interop::StudyResult& result = run.study;
        if (!snapshot_path.empty()) {
          std::ofstream snapshot(snapshot_path);
          if (!snapshot) {
            std::cerr << "wsinterop: cannot open snapshot file " << snapshot_path << "\n";
            return 1;
          }
          snapshot << interop::to_snapshot_csv(result);
        }
        if (format == "csv") {
          std::cout << interop::fig4_csv(result) << "\n" << interop::table3_csv(result);
        } else if (format == "markdown") {
          std::cout << interop::fig4_markdown(result) << "\n"
                    << interop::table3_markdown(result);
        } else {
          std::cout << interop::format_fig4(result) << "\n"
                    << interop::format_table3(result) << "\n"
                    << interop::format_findings(result) << "\n"
                    << interop::format_failure_catalog(result);
        }
        return 0;
      });
}

int cmd_run(const std::vector<std::string>& args) {
  interop::StudyConfig config;
  ObsSinks sinks;
  ResilienceFlags res;
  std::string format = "text";
  std::string log_path;
  std::string snapshot_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (res.consume(args, i)) {
      if (res.bad) return usage();
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      std::size_t percent = 0;
      if (!parse_count(args[++i], percent)) return usage();
      apply_scale(config.java_spec, config.dotnet_spec, percent);
    } else if ((args[i] == "--threads" || args[i] == "--jobs") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], config.threads)) return usage();
    } else if (args[i] == "--versions" && i + 1 < args.size()) {
      // Accepted (and validated) for symmetry with the other campaign
      // verbs, but steps 1-3 never touch the wire, so the axis only
      // changes behaviour under communicate/chaos/scorecard.
      if (!parse_versions(args[++i], config.versions)) return 2;
    } else if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else if (args[i] == "--log" && i + 1 < args.size()) {
      log_path = args[++i];
    } else if (args[i] == "--snapshot" && i + 1 < args.size()) {
      snapshot_path = args[++i];
    } else {
      return usage();
    }
  }
  std::ofstream log_file;
  if (!log_path.empty()) {
    log_file.open(log_path);
    if (!log_file) {
      std::cerr << "wsinterop: cannot open log file " << log_path << "\n";
      return 1;
    }
    config.observer = [&log_file](const interop::TestRecord& record) {
      log_file << interop::to_json_line(record) << "\n";
    };
  }
  return study_campaign(config, res, sinks, format, snapshot_path);
}

/// Options shared by file and corpus lint modes.
struct LintOptions {
  std::vector<std::string> files;
  bool corpus = false;
  bool join_study = false;
  std::size_t scale = 100;
  std::size_t jobs = 0;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  analysis::RuleConfig rules;
};

/// Prints lint findings, for files and the corpus alike: the
/// --write-baseline file first, then the findings left after --baseline
/// (also as the --sarif log), then the summary line. Returns 2 when an
/// error-severity finding remains, 0 otherwise, and 1 when a file could not
/// be written.
int print_findings(std::vector<analysis::Finding> findings, const LintOptions& options,
                   const analysis::Baseline& baseline) {
  if (!options.write_baseline_path.empty()) {
    if (!write_text_file(options.write_baseline_path,
                         analysis::Baseline::from_findings(findings).str())) {
      return 1;
    }
  }
  const std::size_t before = findings.size();
  findings = analysis::apply_baseline(std::move(findings), baseline);
  if (!options.sarif_path.empty() &&
      !write_text_file(options.sarif_path, analysis::to_sarif(findings))) {
    return 1;
  }
  std::cout << analysis::format_findings(findings);
  std::cout << analysis::summarize(findings);
  if (before != findings.size()) {
    std::cout << " (" << before - findings.size() << " baselined)";
  }
  std::cout << "\n";
  const bool has_errors =
      std::any_of(findings.begin(), findings.end(), [](const analysis::Finding& f) {
        return f.severity == Severity::kError || f.severity == Severity::kCrash;
      });
  return has_errors ? 2 : 0;
}

/// The corpus lint: the per-rule report, then every finding. A journal
/// records no output flag (--sarif, --baseline, --write-baseline), so
/// `resume` prints what a straight run without them prints.
int lint_corpus_campaign(const analysis::CorpusOptions& corpus, const ResilienceFlags& res,
                         ObsSinks& sinks, const LintOptions& options = {},
                         const analysis::Baseline& baseline = {}) {
  return finish_campaign(
      analysis::analyze_corpus_supervised, corpus, res, sinks, "text",
      [&](const analysis::SupervisedCorpusResult& run) {
        std::cout << analysis::format_report(run.report);
        return print_findings(run.report.all_findings(), options, baseline);
      });
}

int cmd_lint(const std::vector<std::string>& args) {
  LintOptions options;
  ObsSinks sinks;
  ResilienceFlags res;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (res.consume(args, i)) {
      if (res.bad) return usage();
    } else if (args[i] == "--corpus") {
      options.corpus = true;
    } else if (args[i] == "--join-study") {
      options.join_study = true;
    } else if (args[i] == "--strict") {
      options.rules.severity_overrides["WSX1001"] = Severity::kError;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], options.scale)) return usage();
    } else if ((args[i] == "--jobs" || args[i] == "--threads") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], options.jobs)) return usage();
    } else if (args[i] == "--sarif" && i + 1 < args.size()) {
      options.sarif_path = args[++i];
    } else if (args[i] == "--baseline" && i + 1 < args.size()) {
      options.baseline_path = args[++i];
    } else if (args[i] == "--write-baseline" && i + 1 < args.size()) {
      options.write_baseline_path = args[++i];
    } else if (args[i] == "--disable" && i + 1 < args.size()) {
      std::string ids = args[++i];
      std::size_t start = 0;
      while (start <= ids.size()) {
        const std::size_t comma = ids.find(',', start);
        const std::string id =
            ids.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!id.empty()) options.rules.disabled.insert(id);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage();
    } else {
      options.files.push_back(args[i]);
    }
  }
  // Exactly one input mode: files, or the generated corpus. The resilience
  // flags supervise the corpus lint only — on file lists they are an error.
  if (options.corpus ? !options.files.empty() : options.files.empty()) return usage();
  if (res.enabled() && !options.corpus) return usage();

  analysis::Baseline baseline;
  if (!options.baseline_path.empty()) {
    std::ifstream file(options.baseline_path);
    if (!file) {
      std::cerr << "wsinterop: cannot open baseline " << options.baseline_path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    Result<analysis::Baseline> parsed = analysis::Baseline::parse(buffer.str());
    if (!parsed.ok()) {
      std::cerr << "wsinterop: " << parsed.error().message << "\n";
      return 1;
    }
    baseline = std::move(parsed.value());
  }

  if (options.corpus) {
    analysis::CorpusOptions corpus;
    apply_scale(corpus.java_spec, corpus.dotnet_spec, options.scale);
    corpus.jobs = options.jobs;
    corpus.rules = options.rules;
    corpus.join_study = options.join_study;
    return lint_corpus_campaign(corpus, res, sinks, options, baseline);
  }
  std::vector<analysis::Finding> findings;
  for (const std::string& path : options.files) {
    std::ifstream file(path);
    if (!file) {
      std::cerr << "wsinterop: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    Result<wsdl::Definitions> defs = wsdl::parse(buffer.str());
    if (!defs.ok()) {
      std::cerr << "wsinterop: parse error in " << path << ": " << defs.error().message << "\n";
      return 1;
    }
    analysis::AnalysisInput input;
    input.definitions = &defs.value();
    input.uri = path;
    const analysis::AnalysisResult result = analysis::analyze(input, options.rules);
    findings.insert(findings.end(), result.findings.begin(), result.findings.end());
  }
  return print_findings(std::move(findings), options, baseline);
}

const catalog::TypeInfo* find_type(const frameworks::ServerFramework& server,
                                   const std::string& type_name,
                                   catalog::TypeCatalog& storage) {
  storage = server.language() == "C#" ? catalog::make_dotnet_catalog()
                                      : catalog::make_java_catalog();
  return storage.find(type_name);
}

int cmd_describe(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const auto server = frameworks::make_server(args[0]);
  if (server == nullptr) {
    std::cerr << "wsinterop: unknown server '" << args[0] << "' (see 'wsinterop list')\n";
    return 1;
  }
  catalog::TypeCatalog storage{"", {}};
  const catalog::TypeInfo* type = find_type(*server, args[1], storage);
  if (type == nullptr) {
    std::cerr << "wsinterop: unknown type '" << args[1] << "'\n";
    return 1;
  }
  Result<frameworks::DeployedService> service =
      server->deploy(frameworks::ServiceSpec{type});
  if (!service.ok()) {
    std::cerr << "wsinterop: " << service.error().message << "\n";
    return 1;
  }
  std::cout << service->wsdl_text;
  return 0;
}

int cmd_test(const std::vector<std::string>& args_in) {
  std::vector<std::string> args = args_in;
  bool dump = false;
  std::erase_if(args, [&dump](const std::string& arg) {
    if (arg == "--dump") {
      dump = true;
      return true;
    }
    return false;
  });
  if (args.size() != 3) return usage();
  const auto server = frameworks::make_server(args[0]);
  const auto client = frameworks::make_client(args[2]);
  if (server == nullptr || client == nullptr) {
    std::cerr << "wsinterop: unknown framework (see 'wsinterop list')\n";
    return 1;
  }
  catalog::TypeCatalog storage{"", {}};
  const catalog::TypeInfo* type = find_type(*server, args[1], storage);
  if (type == nullptr) {
    std::cerr << "wsinterop: unknown type '" << args[1] << "'\n";
    return 1;
  }
  Result<frameworks::DeployedService> service =
      server->deploy(frameworks::ServiceSpec{type});
  if (!service.ok()) {
    std::cout << "step 1 (description): REFUSED — " << service.error().message << "\n";
    return 0;
  }
  std::cout << "step 1 (description): published, WS-I "
            << wsi::check(service->wsdl).summary() << "\n";
  frameworks::GenerationResult generation = client->generate(service->wsdl_text);
  for (const Diagnostic& diagnostic : generation.diagnostics.diagnostics()) {
    std::cout << "step 2 (generation): [" << to_string(diagnostic.severity) << "] "
              << diagnostic.code << ": " << diagnostic.message << "\n";
  }
  if (!generation.produced_artifacts()) {
    std::cout << "step 2 (generation): no artifacts produced\n";
    return 0;
  }
  if (generation.diagnostics.empty()) std::cout << "step 2 (generation): clean\n";
  if (dump) {
    std::cout << "--- generated artifacts ---\n"
              << code::render(*generation.artifacts) << "---------------------------\n";
  }
  // Step 3 checks compiled languages by compiling, dynamic ones by
  // instantiating the client object.
  const bool compiled = client->requires_compilation();
  const std::string step = compiled ? "step 3 (compilation): " : "step 3 (instantiation): ";
  const DiagnosticSink sink =
      compiled ? compilers::make_compiler(client->language())->compile(*generation.artifacts)
               : compilers::check_instantiation(*generation.artifacts);
  if (sink.empty()) std::cout << step << "clean\n";
  for (const Diagnostic& diagnostic : sink.diagnostics()) {
    std::cout << step << "[" << to_string(diagnostic.severity) << "] " << diagnostic.code << ": "
              << diagnostic.message << "\n";
  }
  return 0;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  fuzz::FuzzConfig config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--corpus" && i + 1 < args.size()) {
      if (!parse_count(args[++i], config.corpus_per_server)) return usage();
    } else {
      return usage();
    }
  }
  std::cout << fuzz::format_fuzz(fuzz::run_fuzz_campaign(config));
  return 0;
}

/// The communication study.
int communication_campaign(const interop::StudyConfig& config, const ResilienceFlags& res,
                           ObsSinks& sinks) {
  return finish_campaign(interop::run_communication_supervised, config, res, sinks, "text",
                         [](const interop::SupervisedCommunicationResult& run) {
                           std::cout << interop::format_communication(run.communication);
                           return 0;
                         });
}

int cmd_communicate(const std::vector<std::string>& args) {
  interop::StudyConfig config;
  ObsSinks sinks;
  ResilienceFlags res;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (res.consume(args, i)) {
      if (res.bad) return usage();
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      std::size_t percent = 0;
      if (!parse_count(args[++i], percent)) return usage();
      apply_scale(config.java_spec, config.dotnet_spec, percent);
    } else if ((args[i] == "--threads" || args[i] == "--jobs") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], config.threads)) return usage();
    } else if (args[i] == "--versions" && i + 1 < args.size()) {
      if (!parse_versions(args[++i], config.versions)) return 2;
    } else {
      return usage();
    }
  }
  return communication_campaign(config, res, sinks);
}

/// Whether `format` is one of `known`; an unknown --format is a usage
/// error, caught before the campaign runs.
bool known_format(const std::string& format, std::initializer_list<std::string_view> known) {
  if (std::find(known.begin(), known.end(), format) != known.end()) return true;
  std::cerr << "wsinterop: unknown format '" << format << "'\n";
  return false;
}

/// The chaos study: the --csv file when asked for, then the report in
/// `format`.
int chaos_campaign(const chaos::ChaosConfig& config, const ResilienceFlags& res,
                   ObsSinks& sinks, const std::string& format,
                   const std::string& csv_path = "") {
  if (!known_format(format, {"text", "csv", "markdown", "json"})) return 2;
  return finish_campaign(
      chaos::run_chaos_supervised, config, res, sinks, format,
      [&](const chaos::SupervisedChaosResult& run) {
        const chaos::ChaosResult& result = run.chaos;
        if (!csv_path.empty() && !write_text_file(csv_path, chaos::chaos_csv(result))) return 1;
        if (format == "csv") {
          std::cout << chaos::chaos_csv(result);
        } else if (format == "markdown") {
          std::cout << chaos::chaos_markdown(result);
        } else if (format == "json") {
          std::cout << chaos::chaos_recovery_json(result) << "\n";
        } else {
          std::cout << chaos::format_chaos(result);
        }
        return 0;
      });
}

int cmd_chaos(const std::vector<std::string>& args) {
  chaos::ChaosConfig config;
  ObsSinks sinks;
  ResilienceFlags res;
  std::string format = "text";
  std::string csv_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (res.consume(args, i)) {
      if (res.bad) return usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      std::size_t seed = 0;
      if (!parse_count(args[++i], seed)) return usage();
      config.plan.seed = seed;
    } else if (args[i] == "--rate" && i + 1 < args.size()) {
      std::size_t rate = 0;
      if (!parse_count(args[++i], rate) || rate > 100) return usage();
      config.plan.rate_percent = static_cast<unsigned>(rate);
    } else if (args[i] == "--faults" && i + 1 < args.size()) {
      std::stringstream kinds(args[++i]);
      std::string name;
      while (std::getline(kinds, name, ',')) {
        const std::optional<chaos::FaultKind> kind = chaos::parse_fault_kind(name);
        if (!kind.has_value()) {
          std::cerr << "wsinterop: unknown fault kind '" << name << "'; kinds are:";
          for (const chaos::FaultKind known : chaos::all_fault_kinds()) {
            std::cerr << ' ' << chaos::to_string(known);
          }
          std::cerr << "\n";
          return 2;
        }
        config.plan.kinds.push_back(*kind);
      }
    } else if (args[i] == "--versions" && i + 1 < args.size()) {
      if (!parse_versions(args[++i], config.versions)) return 2;
    } else if (args[i] == "--burst" && i + 1 < args.size()) {
      std::size_t burst = 0;
      if (!parse_count(args[++i], burst) || burst == 0) return usage();
      config.plan.max_burst = static_cast<unsigned>(burst);
    } else if (args[i] == "--calls" && i + 1 < args.size()) {
      if (!parse_count(args[++i], config.calls_per_pair) || config.calls_per_pair == 0) {
        return usage();
      }
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      std::size_t percent = 0;
      if (!parse_count(args[++i], percent)) return usage();
      apply_scale(config.java_spec, config.dotnet_spec, percent);
    } else if ((args[i] == "--jobs" || args[i] == "--threads") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], config.jobs)) return usage();
    } else if (args[i] == "--csv" && i + 1 < args.size()) {
      csv_path = args[++i];
    } else if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else {
      return usage();
    }
  }
  return chaos_campaign(config, res, sinks, format, csv_path);
}

/// The propcheck matrix (or its canonical JSON, in `format`); property
/// violations exit 3 so CI can gate on them.
int propcheck_campaign(const gen::GenConfig& config, const ResilienceFlags& res,
                       ObsSinks& sinks, const std::string& format, bool with_shrink) {
  if (!known_format(format, {"text", "json"})) return 2;
  return finish_campaign(
      gen::run_propcheck_supervised, config, res, sinks, format,
      [&](const gen::SupervisedGenResult& run) {
        if (format == "json") {
          std::cout << gen::propcheck_json(run.propcheck) << "\n";
        } else {
          std::cout << gen::format_propcheck(run.propcheck, with_shrink);
        }
        return run.propcheck.total_failures() == 0 ? 0 : 3;
      });
}

/// `wsinterop propcheck` — WSDL-guided property-based testing of the
/// communication phase: generates a schema-valid corpus per operation,
/// replays it through every (service, client) pair, and checks that every
/// case stays inside the contract and classifies like the pair's baseline.
/// --sabotage injects the schema-violation bug the validator must catch;
/// --shrink minimises each counterexample and prints a replay command.
int cmd_propcheck(const std::vector<std::string>& args) {
  gen::GenConfig config;
  ObsSinks sinks;
  ResilienceFlags res;
  std::string format = "text";
  bool with_shrink = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (res.consume(args, i)) {
      if (res.bad) return usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      std::size_t seed = 0;
      if (!parse_count(args[++i], seed)) return usage();
      config.corpus.seed = seed;
    } else if (args[i] == "--cases" && i + 1 < args.size()) {
      if (!parse_count(args[++i], config.corpus.cases_per_operation) ||
          config.corpus.cases_per_operation == 0) {
        return usage();
      }
    } else if (args[i] == "--max-depth" && i + 1 < args.size()) {
      std::size_t depth = 0;
      if (!parse_count(args[++i], depth) || depth > 16) return usage();
      config.corpus.max_depth = static_cast<int>(depth);
    } else if (args[i] == "--sabotage") {
      config.corpus.sabotage = true;
    } else if (args[i] == "--shrink") {
      with_shrink = true;
    } else if (args[i] == "--no-shrink") {
      config.shrink = false;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      std::size_t percent = 0;
      if (!parse_count(args[++i], percent)) return usage();
      apply_scale(config.java_spec, config.dotnet_spec, percent);
    } else if ((args[i] == "--jobs" || args[i] == "--threads") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], config.jobs)) return usage();
    } else if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else {
      return usage();
    }
  }
  if (with_shrink) config.shrink = true;
  return propcheck_campaign(config, res, sinks, format, with_shrink);
}

/// The output flags of `predict --corpus`, none of which a journal records.
struct PredictOutput {
  std::string index_path;         ///< --index: substitution index file
  std::size_t min_precision = 0;  ///< --min-precision floor, percent
  std::size_t min_recall = 0;     ///< --min-recall floor, percent
  bool gated = false;             ///< a floor was given
};

/// The corpus prediction: the --index file when asked for, the report, and
/// on a joined run a missed accuracy floor (exit 3; the floors use
/// integer-percent arithmetic, so CI sees no floating-point boundary
/// surprises).
int predict_corpus_campaign(const analysis::predict::PredictOptions& options,
                            const ResilienceFlags& res, ObsSinks& sinks,
                            const PredictOutput& output = {}) {
  return finish_campaign(
      analysis::predict::predict_corpus_supervised, options, res, sinks, "text",
      [&](const analysis::predict::SupervisedPredictResult& run) {
        const analysis::predict::PredictReport& report = run.report;
        if (!output.index_path.empty() &&
            !write_text_file(output.index_path, analysis::predict::index_json(
                                                    analysis::predict::build_index(report)) +
                                                    "\n")) {
          return 1;
        }
        std::cout << analysis::predict::format_predict_report(report);
        if (!output.gated || !report.joined) return 0;
        const analysis::predict::ClientScore& overall = report.overall;
        const bool precision_ok = 100 * overall.true_positives >=
                                  output.min_precision *
                                      (overall.true_positives + overall.false_positives);
        const bool recall_ok =
            100 * overall.true_positives >=
            output.min_recall * (overall.true_positives + overall.false_negatives);
        if (precision_ok && recall_ok) return 0;
        std::cout << "predict: accuracy below floor (need precision >= " << output.min_precision
                  << "%, recall >= " << output.min_recall << "%)\n";
        return 3;
      });
}

/// `wsinterop predict SERVER TYPE` — single-service static prediction; or
/// `wsinterop predict --corpus` — the whole generated corpus, scored
/// against the dynamic study unless --no-join; a missed accuracy floor
/// exits 3.
int cmd_predict(const std::vector<std::string>& args) {
  analysis::predict::PredictOptions options;
  ObsSinks sinks;
  ResilienceFlags res;
  bool corpus = false;
  PredictOutput output;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (res.consume(args, i)) {
      if (res.bad) return usage();
    } else if (args[i] == "--corpus") {
      corpus = true;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      std::size_t percent = 0;
      if (!parse_count(args[++i], percent)) return usage();
      apply_scale(options.java_spec, options.dotnet_spec, percent);
    } else if ((args[i] == "--jobs" || args[i] == "--threads") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], options.jobs)) return usage();
    } else if (args[i] == "--no-join") {
      options.join_study = false;
    } else if (args[i] == "--shape" && i + 1 < args.size()) {
      if (!parse_shape(args[++i], options.shape)) return 2;
    } else if (args[i] == "--index" && i + 1 < args.size()) {
      output.index_path = args[++i];
    } else if (args[i] == "--min-precision" && i + 1 < args.size()) {
      if (!parse_count(args[++i], output.min_precision) || output.min_precision > 100) {
        return usage();
      }
      output.gated = true;
    } else if (args[i] == "--min-recall" && i + 1 < args.size()) {
      if (!parse_count(args[++i], output.min_recall) || output.min_recall > 100) return usage();
      output.gated = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage();
    } else {
      positional.push_back(args[i]);
    }
  }
  if (corpus ? !positional.empty() : positional.size() != 2) return usage();
  // Everything but SERVER TYPE is corpus-only; the floors additionally need
  // the ground-truth join to have anything to gate on.
  if (!corpus &&
      (res.enabled() || !output.index_path.empty() || output.gated || !options.join_study)) {
    return usage();
  }
  if (output.gated && !options.join_study) return usage();

  if (!corpus) {
    const auto server = frameworks::make_server(positional[0]);
    if (server == nullptr) {
      std::cerr << "wsinterop: unknown server '" << positional[0]
                << "' (see 'wsinterop list')\n";
      return 1;
    }
    catalog::TypeCatalog storage{"", {}};
    const catalog::TypeInfo* type = find_type(*server, positional[1], storage);
    if (type == nullptr) {
      std::cerr << "wsinterop: unknown type '" << positional[1] << "'\n";
      return 1;
    }
    Result<frameworks::DeployedService> service =
        server->deploy(frameworks::ServiceSpec{type, options.shape});
    if (!service.ok()) {
      std::cerr << "wsinterop: " << service.error().message << "\n";
      return 1;
    }
    const frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(service.value());
    std::cout << analysis::predict::format_service_prediction(
        analysis::predict::predict_service(description));
    return 0;
  }

  return predict_corpus_campaign(options, res, sinks, output);
}

/// `wsinterop substitute` — answers "which service can replace Y for client
/// X" from a serialized substitution index; no corpus rescan happens here.
int cmd_substitute(const std::vector<std::string>& args) {
  analysis::predict::SubstituteQuery query;
  std::string index_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--client" && i + 1 < args.size()) {
      query.client = args[++i];
    } else if (args[i] == "--service" && i + 1 < args.size()) {
      query.service = args[++i];
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      if (!parse_count(args[++i], query.top) || query.top == 0) return usage();
    } else if (args[i] == "--index" && i + 1 < args.size()) {
      index_path = args[++i];
    } else {
      return usage();
    }
  }
  if (query.client.empty() || query.service.empty() || index_path.empty()) return usage();
  std::ifstream file(index_path);
  if (!file) {
    std::cerr << "wsinterop: cannot open index " << index_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  Result<analysis::predict::SubstitutionIndex> index =
      analysis::predict::index_from_json(buffer.str());
  if (!index.ok()) {
    std::cerr << "wsinterop: " << index.error().message << "\n";
    return 1;
  }
  Result<std::vector<analysis::predict::Candidate>> candidates =
      analysis::predict::substitute(index.value(), query);
  if (!candidates.ok()) {
    std::cerr << "wsinterop: " << candidates.error().message << "\n";
    return 1;
  }
  std::cout << analysis::predict::format_candidates(query, candidates.value());
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const auto read_snapshot =
      [](const std::string& path) -> Result<std::vector<interop::SnapshotCell>> {
    std::ifstream file(path);
    if (!file) return Error{"snapshot.unreadable", "cannot open " + path};
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return interop::parse_snapshot_csv(buffer.str());
  };
  Result<std::vector<interop::SnapshotCell>> before = read_snapshot(args[0]);
  Result<std::vector<interop::SnapshotCell>> after = read_snapshot(args[1]);
  if (!before.ok() || !after.ok()) {
    std::cerr << "wsinterop: "
              << (!before.ok() ? before.error().message : after.error().message) << "\n";
    return 1;
  }
  const std::vector<interop::CellDiff> diff = interop::diff_snapshots(*before, *after);
  std::cout << interop::format_diff(diff);
  return diff.empty() ? 0 : 3;
}

int cmd_scorecard(const std::vector<std::string>& args) {
  bool with_chaos = false;
  std::size_t jobs = 0;
  std::vector<frameworks::VersionPolicy> versions;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--chaos") {
      with_chaos = true;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], jobs)) return usage();
    } else if (args[i] == "--versions" && i + 1 < args.size()) {
      if (!parse_versions(args[++i], versions)) return 2;
    } else {
      return usage();
    }
  }
  interop::StudyConfig study_config;
  study_config.threads = jobs;
  study_config.versions = versions;
  const interop::StudyResult study = interop::run_study(study_config);
  const interop::CommunicationResult communication =
      interop::run_communication_study(study_config);
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.corpus_per_server = 5;
  const fuzz::FuzzReport fuzzing = fuzz::run_fuzz_campaign(fuzz_config);
  if (with_chaos) {
    chaos::ChaosConfig chaos_config;
    chaos_config.jobs = jobs;
    chaos_config.versions = versions;
    const chaos::ChaosResult chaos_result = chaos::run_chaos_study(chaos_config);
    std::cout << interop::format_scorecard(
        interop::build_scorecard(study, communication, fuzzing, chaos_result));
  } else {
    std::cout << interop::format_scorecard(
        interop::build_scorecard(study, communication, fuzzing));
  }
  return 0;
}

/// Runs a sized-down study with tracing and metrics always on and prints
/// the per-phase breakdown — the quickest way to see where a campaign
/// spends its time without setting up export files.
int cmd_profile(const std::vector<std::string>& args) {
  std::size_t scale = 10;
  std::size_t jobs = 0;
  ObsSinks sinks;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], scale)) return usage();
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], jobs)) return usage();
    } else {
      return usage();
    }
  }
  interop::StudyConfig config;
  apply_scale(config.java_spec, config.dotnet_spec, scale);
  config.threads = jobs;
  // Profiling without sinks would be pointless, so both are always live;
  // --trace/--metrics additionally export them.
  config.tracer = &sinks.tracer;
  config.metrics = &sinks.registry;
  const interop::StudyResult result = interop::run_study(config);
  if (!sinks.flush()) return 1;
  std::cout << "profile: study at scale " << scale << "% — " << result.total_tests()
            << " tests\n\n"
            << sinks.tracer.summary() << "\n"
            << sinks.registry.summary();
  return 0;
}

/// Reads a checkpoint journal (`what` names it in messages). A crash
/// mid-append leaves a truncated last record, which is exactly what a
/// resume exists for: it is tolerated (its task re-executes) with a note on
/// stderr rather than refusing the whole journal. Errors are reported here.
std::optional<resilience::Journal> read_journal(const std::string& path,
                                                const std::string& what) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "wsinterop: cannot open " << what << " " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  resilience::JournalParseOptions tolerant;
  std::string tail_note;
  tolerant.tolerate_truncated_tail = true;
  tolerant.diagnostic = &tail_note;
  Result<resilience::Journal> parsed = resilience::Journal::parse(buffer.str(), tolerant);
  if (!parsed.ok()) {
    std::cerr << "wsinterop: " << parsed.error().message << "\n";
    return std::nullopt;
  }
  if (!tail_note.empty()) {
    std::cerr << "wsinterop: " << what << " " << path << ": " << tail_note << "\n";
  }
  return std::move(parsed.value());
}

/// A resume in progress: the journal's own supervisor knobs as resilience
/// flags, checkpointing on into the same file with the journal as the
/// resume source, plus what `resume` may choose anew: throughput (--jobs),
/// the output format and the crash drill.
struct Resume {
  ResilienceFlags res;
  std::size_t jobs = 0;
  std::string format;
  ObsSinks& sinks;

  /// Decodes the journal's config and hands it to `campaign`.
  template <typename Decode, typename Campaign>
  int finish(Decode decode, Campaign campaign) const {
    auto config = decode(res.supervision.resume->config_json);
    if (!config.ok()) {
      std::cerr << "wsinterop: " << config.error().message << "\n";
      return 1;
    }
    return campaign(*config);
  }
};

/// The campaigns `resume` can finish, by the journal's `campaign`: each
/// decodes its config and runs the verb's own campaign function, so a
/// resumed run prints what the straight run printed, with its exit code.
struct ResumableCampaign {
  std::string_view campaign;
  int (*resume)(const Resume& resume);
};

const ResumableCampaign kResumable[] = {
    {"study", [](const Resume& r) {
       return r.finish(interop::study_config_from_json, [&](interop::StudyConfig& config) {
         config.threads = r.jobs;
         return study_campaign(config, r.res, r.sinks, r.format);
       });
     }},
    {"communication", [](const Resume& r) {
       return r.finish(interop::communication_config_from_json, [&](interop::StudyConfig& config) {
         config.threads = r.jobs;
         return communication_campaign(config, r.res, r.sinks);
       });
     }},
    {"chaos", [](const Resume& r) {
       return r.finish(chaos::chaos_config_from_json, [&](chaos::ChaosConfig& config) {
         config.jobs = r.jobs;
         return chaos_campaign(config, r.res, r.sinks, r.format);
       });
     }},
    {"propcheck", [](const Resume& r) {
       return r.finish(gen::gen_config_from_json, [&](gen::GenConfig& config) {
         config.jobs = r.jobs;
         return propcheck_campaign(config, r.res, r.sinks, r.format, /*with_shrink=*/true);
       });
     }},
    {"lint-corpus", [](const Resume& r) {
       return r.finish(analysis::corpus_config_from_json, [&](analysis::CorpusOptions& options) {
         options.jobs = r.jobs;
         return lint_corpus_campaign(options, r.res, r.sinks);
       });
     }},
    {"predict-corpus", [](const Resume& r) {
       return r.finish(analysis::predict::predict_config_from_json,
                       [&](analysis::predict::PredictOptions& options) {
                         options.jobs = r.jobs;
                         return predict_corpus_campaign(options, r.res, r.sinks);
                       });
     }},
};

/// `wsinterop resume JOURNAL` — finishes an interrupted supervised campaign.
/// The campaign config and the deterministic supervisor knobs come from the
/// journal header (a fingerprint mismatch is impossible by construction);
/// only the throughput knobs (--jobs), the output format, and the crash
/// simulation may be chosen anew. Checkpointing continues into the same
/// journal file.
int cmd_resume(const std::vector<std::string>& args) {
  std::string journal_path;
  std::size_t jobs = 0;
  std::string format = "text";
  std::size_t trip = 0;
  ObsSinks sinks;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], jobs)) return usage();
    } else if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else if (args[i] == "--trip-after" && i + 1 < args.size()) {
      if (!parse_count(args[++i], trip)) return usage();
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage();
    } else if (journal_path.empty()) {
      journal_path = args[i];
    } else {
      return usage();
    }
  }
  if (journal_path.empty()) return usage();
  const std::optional<resilience::Journal> parsed = read_journal(journal_path, "journal");
  if (!parsed.has_value()) return 1;
  for (const ResumableCampaign& campaign : kResumable) {
    if (campaign.campaign != parsed->campaign) continue;
    ResilienceFlags res;
    res.supervision.journal = parsed->options;
    res.supervision.checkpoint_path = journal_path;
    res.supervision.trip_after_tasks = trip;
    res.supervision.resume = &parsed.value();
    res.any = true;
    return campaign.resume(Resume{res, jobs, format, sinks});
  }
  std::cerr << "wsinterop: journal " << journal_path << " names unknown campaign '"
            << parsed->campaign << "'\n";
  return 1;
}

/// `wsinterop serve` — loads the corpus once, precomputes every verdict
/// under the resilience supervisor (the cache journal doubles as the warm-
/// restart checkpoint), then answers queries from a script file, a
/// deterministic self-probe, or a localhost TCP listener. Responses for the
/// probe/script paths go to stdout one frame payload per line so the crash
/// drill can diff a cold daemon against a warm-restarted one byte for byte;
/// provenance (how many verdicts were replayed vs recomputed) goes to
/// stderr, which keeps the stdout transcript restart-invariant.
int cmd_serve(const std::vector<std::string>& args) {
  serve::OracleOptions oracle_options;
  serve::DaemonSettings settings;
  ObsSinks sinks;
  bool warm = false;
  bool stats = false;
  std::size_t probe = 0;
  std::string requests_path;
  bool tcp = false;
  std::size_t tcp_port = 0;
  std::size_t tcp_connections = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (sinks.consume(args, i)) {
      continue;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      std::size_t percent = 0;
      if (!parse_count(args[++i], percent)) return usage();
      apply_scale(oracle_options.predict.java_spec, oracle_options.predict.dotnet_spec,
                  percent);
    } else if (args[i] == "--shape" && i + 1 < args.size()) {
      if (!parse_shape(args[++i], oracle_options.predict.shape)) return 2;
    } else if ((args[i] == "--jobs" || args[i] == "--threads") && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], oracle_options.predict.jobs)) return usage();
    } else if (args[i] == "--cache" && i + 1 < args.size()) {
      oracle_options.supervision.checkpoint_path = args[++i];
    } else if (args[i] == "--resume") {
      warm = true;
    } else if (args[i] == "--trip-after" && i + 1 < args.size()) {
      if (!parse_count(args[++i], oracle_options.supervision.trip_after_tasks)) return usage();
    } else if (args[i] == "--probe" && i + 1 < args.size()) {
      if (!parse_count(args[++i], probe)) return usage();
    } else if (args[i] == "--requests" && i + 1 < args.size()) {
      requests_path = args[++i];
    } else if (args[i] == "--lanes" && i + 1 < args.size()) {
      if (!parse_count(args[++i], settings.admission.lanes) ||
          settings.admission.lanes == 0) {
        return usage();
      }
    } else if (args[i] == "--queue" && i + 1 < args.size()) {
      if (!parse_count(args[++i], settings.admission.queue_capacity)) return usage();
    } else if (args[i] == "--quarantine-after" && i + 1 < args.size()) {
      if (!parse_count(args[++i], settings.quarantine_after) ||
          settings.quarantine_after == 0) {
        return usage();
      }
    } else if (args[i] == "--tcp" && i + 1 < args.size()) {
      if (!parse_count(args[++i], tcp_port) || tcp_port > 65535) return usage();
      tcp = true;
    } else if (args[i] == "--connections" && i + 1 < args.size()) {
      if (!parse_count(args[++i], tcp_connections) || tcp_connections == 0) return usage();
    } else if (args[i] == "--stats") {
      stats = true;
    } else {
      return usage();
    }
  }
  if (warm && oracle_options.supervision.checkpoint_path.empty()) return usage();

  // The study join is pointless for a daemon (and slow): serve predictions.
  oracle_options.predict.join_study = false;
  settings.metrics = sinks.metrics_or_null();

  std::optional<resilience::Journal> cache;  // must outlive Oracle::load when resuming
  if (warm) {
    cache = read_journal(oracle_options.supervision.checkpoint_path, "serve cache");
    if (!cache.has_value()) return 1;
    oracle_options.supervision.resume = &*cache;
  }

  Result<serve::Oracle> oracle = serve::Oracle::load(oracle_options);
  if (!oracle.ok()) {
    std::cerr << "wsinterop: " << oracle.error().message << "\n";
    return 1;
  }
  const resilience::SupervisorReport precompute = oracle->precompute();
  std::cerr << "serve: " << oracle->services() << " services, "
            << precompute.executed << " predicted, " << precompute.resumed
            << " resumed from cache\n";
  serve::Daemon daemon(std::move(oracle.value()), settings);
  std::uint64_t now_ms = 0;

  if (precompute.tripped) {
    std::cerr << "serve: crash drill tripped after " << precompute.executed
              << " predictions; cache journal holds the partial state\n";
    sinks.flush();
    return 75;
  }

  if (probe > 0) {
    // Deterministic self-traffic against the precomputed paths (lint takes
    // uploads, so the probe skips it). One arrival per virtual millisecond
    // keeps the probe under capacity: every answer is kOk and the stdout
    // transcript depends only on the corpus, never on restart history.
    const std::vector<std::string>& clients = daemon.oracle().clients();
    const auto& records = daemon.oracle().records();
    if (clients.empty() || records.empty()) {
      std::cerr << "wsinterop: serve corpus is empty; nothing to probe\n";
      return 1;
    }
    for (std::size_t i = 0; i < probe; ++i) {
      serve::Request request;
      const std::size_t mix = i % 10;
      request.kind = mix < 6   ? serve::QueryKind::kVerdict
                     : mix < 8 ? serve::QueryKind::kExplain
                               : serve::QueryKind::kSubstitute;
      request.client = clients[i % clients.size()];
      const auto& record = records[(i * 7) % records.size()];
      request.service = record.server + "/" + record.service;
      ++now_ms;
      const serve::Response response = daemon.handle(request, now_ms);
      std::cout << serve::to_string(request.kind) << " " << request.client << " "
                << request.service << " -> " << serve::encode_response(response) << "\n";
    }
  }

  if (!requests_path.empty()) {
    std::ifstream file(requests_path);
    if (!file) {
      std::cerr << "wsinterop: cannot open request script " << requests_path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    serve::FrameReader reader;
    reader.feed(buffer.str());
    for (;;) {
      std::string payload;
      Result<bool> next = reader.next(payload);
      if (!next.ok()) {
        std::cerr << "wsinterop: " << requests_path << ": " << next.error().message
                  << "\n";
        return 1;
      }
      if (!next.value()) break;
      ++now_ms;
      serve::Response response;
      Result<serve::Request> request = serve::decode_request(payload);
      if (!request.ok()) {
        response.status = serve::StatusCode::kBadRequest;
        response.reason = request.error().message;
      } else {
        response = daemon.handle(request.value(), now_ms);
      }
      std::cout << serve::encode_response(response) << "\n";
    }
    if (reader.pending() != 0) {
      std::cerr << "wsinterop: " << requests_path << ": " << reader.pending()
                << " trailing bytes do not form a complete frame\n";
      return 1;
    }
  }

  if (tcp) {
    Result<serve::TcpServer> server =
        serve::TcpServer::listen(static_cast<std::uint16_t>(tcp_port));
    if (!server.ok()) {
      std::cerr << "wsinterop: " << server.error().message << "\n";
      return 1;
    }
    std::cerr << "serve: listening on 127.0.0.1:" << server->port() << " for "
              << tcp_connections << " connection(s)\n";
    Result<std::size_t> answered = server->serve(daemon, tcp_connections, now_ms);
    if (!answered.ok()) {
      std::cerr << "wsinterop: " << answered.error().message << "\n";
      return 1;
    }
    std::cerr << "serve: answered " << answered.value() << " request(s) over TCP\n";
  }

  if (stats) std::cout << daemon.stats_body(now_ms) << "\n";
  // --metrics without --stats still deserves the export; stats_body() is
  // what mirrors admission/breaker state into the registry.
  if (!stats && settings.metrics != nullptr) (void)daemon.stats_body(now_ms);
  if (!sinks.flush()) return 1;
  return 0;
}

/// Compares every numeric field of a fresh BENCH_serve.json against a
/// committed baseline. Returns the miss count; each miss prints one line.
std::size_t gate_against_baseline(const json::Value& current, const json::Value& baseline,
                                  std::size_t tolerance_percent) {
  std::size_t misses = 0;
  for (const auto& [key, value] : current.members()) {
    if (!value.is_number()) continue;
    const json::Value* expected = baseline.find(key);
    if (expected == nullptr || !expected->is_number()) {
      std::cout << "loadgen: baseline is missing field '" << key << "'\n";
      ++misses;
      continue;
    }
    const double got = value.as_number();
    const double want = expected->as_number();
    const double slack =
        (want < 0 ? -want : want) * static_cast<double>(tolerance_percent) / 100.0;
    const double delta = got > want ? got - want : want - got;
    if (delta > slack) {
      std::cout << "loadgen: " << key << " = " << got << " outside baseline " << want
                << " +/- " << tolerance_percent << "%\n";
      ++misses;
    }
  }
  return misses;
}

/// `wsinterop loadgen` — the deterministic three-phase overload drill
/// (open, overload, crash + warm-restart recovery) against an in-process
/// daemon. Writes BENCH_serve.json, checks the drill invariants, and
/// optionally gates the fresh numbers against a committed baseline. Exit
/// codes follow the repo gate convention: 3 on an invariant or baseline
/// miss, 1 on IO failure, 2 on usage.
int cmd_loadgen(const std::vector<std::string>& args) {
  serve::LoadgenOptions options;
  std::size_t scale = 25;
  std::string out_path = "BENCH_serve.json";
  std::string check_path;
  std::size_t tolerance = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], scale)) return usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      std::size_t seed = 0;
      if (!parse_count(args[++i], seed)) return usage();
      options.seed = seed;
    } else if (args[i] == "--queries" && i + 1 < args.size()) {
      if (!parse_count(args[++i], options.queries_per_phase) ||
          options.queries_per_phase == 0) {
        return usage();
      }
    } else if (args[i] == "--lanes" && i + 1 < args.size()) {
      if (!parse_count(args[++i], options.admission.lanes) ||
          options.admission.lanes == 0) {
        return usage();
      }
    } else if (args[i] == "--queue" && i + 1 < args.size()) {
      if (!parse_count(args[++i], options.admission.queue_capacity)) return usage();
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_jobs(args[++i], options.predict.jobs)) return usage();
    } else if (args[i] == "--cache" && i + 1 < args.size()) {
      options.cache_path = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--check" && i + 1 < args.size()) {
      check_path = args[++i];
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      if (!parse_count(args[++i], tolerance) || tolerance > 100) return usage();
    } else {
      return usage();
    }
  }
  apply_scale(options.predict.java_spec, options.predict.dotnet_spec, scale);

  Result<serve::LoadgenReport> report = serve::run_loadgen(options);
  if (!report.ok()) {
    std::cerr << "wsinterop: " << report.error().message << "\n";
    return 1;
  }
  const std::string doc = serve::loadgen_json(*report, scale, options.seed);
  if (!write_text_file(out_path, doc + "\n")) return 1;

  for (const serve::PhaseStats& phase : report->phases) {
    std::cout << "loadgen: phase " << phase.name << " — sent " << phase.sent << ", ok "
              << phase.ok << ", shed " << phase.shed << ", deadline "
              << phase.deadline_rejected << ", p50 " << phase.p50_ms << "ms, p99 "
              << phase.p99_ms << "ms\n";
  }
  std::cout << "loadgen: warm restart resumed " << report->warm_resumed << " of "
            << (report->warm_resumed + report->warm_executed)
            << " verdicts; recover " << report->recover_ms << "ms vs cold "
            << report->cold_precompute_ms << "ms; cache "
            << (report->fingerprint_match ? "byte-identical" : "MISMATCH") << "\n";

  const std::vector<std::string> violations = serve::check_invariants(*report, options);
  for (const std::string& violation : violations) {
    std::cout << "loadgen: INVARIANT " << violation << "\n";
  }
  if (!violations.empty()) return 3;

  if (!check_path.empty()) {
    std::ifstream file(check_path);
    if (!file) {
      std::cerr << "wsinterop: cannot open baseline " << check_path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    Result<json::Value> baseline = json::parse(buffer.str());
    Result<json::Value> current = json::parse(doc);
    if (!baseline.ok() || !current.ok()) {
      std::cerr << "wsinterop: "
                << (!baseline.ok() ? baseline.error().message : current.error().message)
                << "\n";
      return 1;
    }
    const std::size_t misses =
        gate_against_baseline(current.value(), baseline.value(), tolerance);
    if (misses != 0) {
      std::cout << "loadgen: " << misses << " field(s) outside baseline " << check_path
                << " (tolerance " << tolerance << "%)\n";
      return 3;
    }
    std::cout << "loadgen: within " << tolerance << "% of baseline " << check_path
              << "\n";
  }
  return 0;
}

int cmd_list() {
  std::cout << "servers:\n";
  for (const auto& server : frameworks::make_servers()) {
    std::cout << "  " << server->name() << "  (" << server->application_server() << ", "
              << server->language() << ")\n";
  }
  std::cout << "clients:\n";
  for (const auto& client : frameworks::make_clients()) {
    std::cout << "  " << client->name() << "  (" << client->tool() << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "run") return cmd_run(args);
  if (command == "lint") return cmd_lint(args);
  if (command == "describe") return cmd_describe(args);
  if (command == "test") return cmd_test(args);
  if (command == "fuzz") return cmd_fuzz(args);
  if (command == "communicate") return cmd_communicate(args);
  if (command == "chaos") return cmd_chaos(args);
  if (command == "propcheck") return cmd_propcheck(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "substitute") return cmd_substitute(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "loadgen") return cmd_loadgen(args);
  if (command == "scorecard") return cmd_scorecard(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "resume") return cmd_resume(args);
  if (command == "list") return cmd_list();
  return usage();
}
