#include "analysis/corpus.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/supervised_corpus.hpp"
#include "interop/study.hpp"
#include "wsdl/parser.hpp"

namespace wsx::analysis {

ServiceAnalysis lint_service(std::string_view server, const frameworks::DeployedService& service,
                             const RuleConfig& rules) {
  ServiceAnalysis analysis;
  analysis.server = server;
  analysis.service = service.spec.service_name();
  analysis.type_name = service.spec.type->name;
  analysis.uri = analysis.server + "/" + analysis.service + ".wsdl";
  analysis.zero_operations = service.wsdl.operation_count() == 0;
  const Result<wsdl::Definitions> parsed = wsdl::parse(service.wsdl_text);
  if (!parsed.ok()) {
    Finding finding;
    finding.rule_id = "WSX0001";
    finding.severity = Severity::kCrash;
    finding.message = "published WSDL does not parse: " + parsed.error().message;
    finding.location.uri = analysis.uri;
    analysis.findings.push_back(std::move(finding));
    return analysis;
  }
  AnalysisInput input;
  input.definitions = &parsed.value();
  input.uri = analysis.uri;
  analysis.findings = analyze(input, rules).findings;
  return analysis;
}

bool ServiceAnalysis::flagged_by(std::string_view rule_id) const {
  return std::any_of(findings.begin(), findings.end(),
                     [rule_id](const Finding& f) { return f.rule_id == rule_id; });
}

double RuleStats::precision() const {
  const std::size_t flagged = true_positives + false_positives;
  return flagged == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(flagged);
}

double RuleStats::recall() const {
  const std::size_t errored = true_positives + false_negatives;
  return errored == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(errored);
}

std::vector<Finding> CorpusReport::all_findings() const {
  std::vector<Finding> out;
  for (const ServiceAnalysis& service : services) {
    out.insert(out.end(), service.findings.begin(), service.findings.end());
  }
  return out;
}

std::size_t CorpusReport::services_with_findings() const {
  return static_cast<std::size_t>(
      std::count_if(services.begin(), services.end(),
                    [](const ServiceAnalysis& s) { return !s.findings.empty(); }));
}

std::string CorpusReport::summary() const {
  return std::to_string(services.size()) + " services on " + std::to_string(servers) +
         " servers: " + std::to_string(services_with_findings()) + " with findings";
}

CorpusReport analyze_corpus(const CorpusOptions& options) {
  return resilience::require_complete(analyze_corpus_supervised(options, {})).report;
}

void finalize_corpus_report(CorpusReport& report, const CorpusOptions& options,
                            obs::SpanId parent_span) {
  // Failure-prediction join: replay the study over the same corpus and mark
  // services at least one client errored against (§III.B).
  if (options.join_study) {
    obs::Span join_span(options.tracer, "pass:join", parent_span);
    obs::ScopedTimer join_timer = obs::timer(options.metrics, "lint.phase.join_us");
    report.joined = true;
    std::map<std::string, bool, std::less<>> errored;  // server/service → error
    interop::StudyConfig study;
    study.java_spec = options.java_spec;
    study.dotnet_spec = options.dotnet_spec;
    study.shape = options.shape;
    study.threads = options.jobs;
    study.observer = [&errored](const interop::TestRecord& record) {
      bool& slot = errored[record.server + "/" + record.service];
      slot = slot || record.generation_error || record.compilation_error;
    };
    (void)interop::run_study(study);
    for (ServiceAnalysis& service : report.services) {
      const auto it = errored.find(service.server + "/" + service.service);
      service.downstream_error = it != errored.end() && it->second;
    }
  }

  // Per-rule tallies in registration order.
  obs::Span tally_span(options.tracer, "pass:tally", parent_span);
  obs::ScopedTimer tally_timer = obs::timer(options.metrics, "lint.phase.tally_us");
  for (const auto& rule : RuleRegistry::builtin().rules()) {
    const RuleInfo& info = rule->info();
    if (!options.rules.enabled(info)) continue;
    RuleStats stats;
    stats.rule_id = info.id;
    for (const ServiceAnalysis& service : report.services) {
      const std::size_t hits = static_cast<std::size_t>(
          std::count_if(service.findings.begin(), service.findings.end(),
                        [&info](const Finding& f) { return f.rule_id == info.id; }));
      stats.findings += hits;
      const bool flagged = hits != 0;
      if (flagged) ++stats.services_flagged;
      if (!report.joined) continue;
      if (flagged && service.downstream_error) ++stats.true_positives;
      if (flagged && !service.downstream_error) ++stats.false_positives;
      if (!flagged && service.downstream_error) ++stats.false_negatives;
    }
    if (stats.findings != 0) {
      obs::add(options.metrics, "lint.rule." + stats.rule_id, stats.findings);
    }
    report.rules.push_back(std::move(stats));
  }
}

std::string format_report(const CorpusReport& report) {
  std::string out = report.summary() + "\n";
  if (report.deploy_refusals != 0) {
    out += "  (" + std::to_string(report.deploy_refusals) + " deploy refusals excluded)\n";
  }
  const auto percent = [](double value) {
    return std::to_string(static_cast<int>(value * 100.0 + 0.5)) + "%";
  };
  for (const RuleStats& stats : report.rules) {
    if (stats.findings == 0 && !report.joined) continue;
    out += "  " + stats.rule_id + ": " + std::to_string(stats.findings) + " findings in " +
           std::to_string(stats.services_flagged) + " services";
    if (report.joined && stats.services_flagged != 0) {
      out += " | precision " + percent(stats.precision()) + ", recall " +
             percent(stats.recall());
    }
    out += "\n";
  }
  return out;
}

}  // namespace wsx::analysis
