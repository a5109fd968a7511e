#include "analysis/registry.hpp"

#include <algorithm>

namespace wsx::analysis {

const char* to_string(Category category) {
  switch (category) {
    case Category::kConformance:
      return "conformance";
    case Category::kStructure:
      return "structure";
    case Category::kSchema:
      return "schema";
    case Category::kImports:
      return "imports";
    case Category::kPortability:
      return "portability";
  }
  return "unknown";
}

Diagnostic Finding::to_diagnostic() const {
  Diagnostic diagnostic;
  diagnostic.severity = severity;
  diagnostic.code = "lint." + rule_id;
  diagnostic.message = message;
  diagnostic.subject = subject;
  diagnostic.location = location;
  diagnostic.fixit = fixit;
  return diagnostic;
}

void Reporter::report(std::string message, std::string subject, SourceLocation location,
                      std::string fixit) {
  if (location.uri.empty()) location.uri = uri_;
  Finding finding;
  finding.rule_id = info_.id;
  finding.severity = severity_;
  finding.message = std::move(message);
  finding.subject = std::move(subject);
  finding.location = std::move(location);
  finding.fixit = std::move(fixit);
  out_.push_back(std::move(finding));
  ++reported_;
}

bool RuleConfig::enabled(const RuleInfo& info) const {
  if (disabled.count(info.id) != 0) return false;
  return only.empty() || only.count(info.id) != 0;
}

Severity RuleConfig::severity_for(const RuleInfo& info) const {
  const auto it = severity_overrides.find(info.id);
  return it != severity_overrides.end() ? it->second : info.default_severity;
}

const RuleRegistry& RuleRegistry::builtin() {
  static const RuleRegistry registry = [] {
    RuleRegistry pack;
    register_wsi_rules(pack);
    register_schema_rules(pack);
    register_import_rules(pack);
    return pack;
  }();
  return registry;
}

void RuleRegistry::add(std::unique_ptr<Rule> rule) { rules_.push_back(std::move(rule)); }

const Rule* RuleRegistry::find(std::string_view id) const {
  for (const auto& rule : rules_) {
    if (rule->info().id == id) return rule.get();
  }
  return nullptr;
}

std::size_t AnalysisResult::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [severity](const Finding& f) { return f.severity == severity; }));
}

bool AnalysisResult::has_errors() const {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError || f.severity == Severity::kCrash;
  });
}

AnalysisResult analyze(const AnalysisInput& input, const RuleConfig& config,
                       const RuleRegistry& registry) {
  return RuleSelection{config, registry}.analyze(input);
}

RuleSelection::RuleSelection(const RuleConfig& config, const RuleRegistry& registry) {
  for (const auto& rule : registry.rules()) {
    const RuleInfo& info = rule->info();
    if (config.enabled(info)) rules_.push_back({rule.get(), config.severity_for(info)});
  }
}

AnalysisResult RuleSelection::analyze(const AnalysisInput& input) const {
  AnalysisResult result;
  for (const Selected& selected : rules_) {
    Reporter reporter{selected.rule->info(), selected.severity, input.uri, result.findings};
    selected.rule->run(input, reporter);
  }
  return result;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& finding : findings) {
    const std::string where = finding.location.str();
    if (!where.empty()) {
      out += where;
      out += ": ";
    }
    out += to_string(finding.severity);
    out += ": [";
    out += finding.rule_id;
    out += "] ";
    out += finding.message;
    out += '\n';
    if (!finding.fixit.empty()) {
      out += "    fix: ";
      out += finding.fixit;
      out += '\n';
    }
  }
  return out;
}

std::string summarize(const std::vector<Finding>& findings) {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  for (const Finding& finding : findings) {
    switch (finding.severity) {
      case Severity::kError:
      case Severity::kCrash:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kNote:
        ++notes;
        break;
    }
  }
  if (errors == 0 && warnings == 0 && notes == 0) return "clean";
  std::string out;
  const auto append = [&out](std::size_t n, const char* noun) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
  };
  append(errors, "error");
  append(warnings, "warning");
  append(notes, "note");
  return out;
}

}  // namespace wsx::analysis
