// registry.hpp — rule registration, per-run configuration, and the single
// document analysis entry point.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/rule.hpp"

namespace wsx::analysis {

/// Per-run rule selection and severity tuning.
struct RuleConfig {
  /// Rule ids that must not run.
  std::set<std::string, std::less<>> disabled;
  /// Rule id → severity, overriding the rule's default (e.g. the wsi
  /// adapter promotes WSX1001 to an error under Profile::require_operations).
  std::map<std::string, Severity, std::less<>> severity_overrides;
  /// When non-empty, only these rule ids run (the wsi adapter restricts the
  /// pack to the BP assertions).
  std::set<std::string, std::less<>> only;

  bool enabled(const RuleInfo& info) const;
  Severity severity_for(const RuleInfo& info) const;
};

/// An ordered collection of rules. Registration order is the canonical
/// reporting order (and the SARIF ruleIndex order).
class RuleRegistry {
 public:
  RuleRegistry() = default;
  RuleRegistry(RuleRegistry&&) = default;
  RuleRegistry& operator=(RuleRegistry&&) = default;

  /// The built-in pack: the WS-I BP assertions (category kConformance)
  /// followed by the WSX lint rules. Constructed once, thread-safe to read.
  static const RuleRegistry& builtin();

  void add(std::unique_ptr<Rule> rule);
  const std::vector<std::unique_ptr<Rule>>& rules() const { return rules_; }
  const Rule* find(std::string_view id) const;

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Findings of one document, in rule registration order then emission order.
struct AnalysisResult {
  std::vector<Finding> findings;

  std::size_t count(Severity severity) const;
  /// True when any finding is an error (or crash).
  bool has_errors() const;
};

/// Runs every enabled rule of `registry` against `input`: a one-off
/// RuleSelection.
AnalysisResult analyze(const AnalysisInput& input, const RuleConfig& config = {},
                       const RuleRegistry& registry = RuleRegistry::builtin());

/// The rules a config enables, resolved once: registration order, each at
/// its configured severity. A caller that analyzes many documents under one
/// config (the WS-I check runs once per deployed service) keeps one
/// selection instead of testing every registered rule against the config's
/// sets per document. Borrows the registry's rules.
class RuleSelection {
 public:
  explicit RuleSelection(const RuleConfig& config,
                         const RuleRegistry& registry = RuleRegistry::builtin());

  /// Runs the selected rules against `input`.
  AnalysisResult analyze(const AnalysisInput& input) const;

 private:
  struct Selected {
    const Rule* rule = nullptr;
    Severity severity = Severity::kError;
  };
  std::vector<Selected> rules_;
};

/// Pretty text: one "uri:line:col: severity: [ID] message" line per finding
/// (plus an indented "fix:" line when the rule has a hint).
std::string format_findings(const std::vector<Finding>& findings);

/// One-line tally, e.g. "2 errors, 1 warning" or "clean".
std::string summarize(const std::vector<Finding>& findings);

/// Registration helpers for the built-in pack (split across rules_*.cpp).
void register_wsi_rules(RuleRegistry& registry);
void register_schema_rules(RuleRegistry& registry);
void register_import_rules(RuleRegistry& registry);

}  // namespace wsx::analysis
