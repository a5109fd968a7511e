// assertions.cpp — the BP 1.1 checker as a thin adapter over the
// wsx::analysis rule registry. The assertion implementations live in
// src/analysis/rules_wsi.cpp (ids R2xxx) and rules_schema.cpp (WSX1001,
// the paper's §IV.A recommendation, surfaced here under its legacy id
// WSX-OP1); this file only maps findings back onto AssertionResults so
// existing callers compile and behave unchanged.
#include <string>
#include <string_view>
#include <vector>

#include "analysis/registry.hpp"
#include "wsi/profile.hpp"

namespace wsx::wsi {
namespace {

/// Canonical assertion order of the original checker (report order and the
/// order failed ids appear in summaries).
constexpr std::string_view kAssertionIds[] = {
    "R2001", "R2007", "R2102", "R2800", "R2304", "R2204", "R2203", "R2706",
    "R2744", "R2701", "R2718", "R2097", "R2723", "R2105", "R2401", "WSX-OP1",
};

/// The §IV.A rule runs in the registry under its lint id.
constexpr std::string_view kOperationsRule = "WSX1001";
constexpr std::string_view kOperationsAssertion = "WSX-OP1";

std::string_view rule_id_for(std::string_view assertion_id) {
  return assertion_id == kOperationsAssertion ? kOperationsRule : assertion_id;
}

Outcome outcome_for(const std::vector<const analysis::Finding*>& findings) {
  if (findings.empty()) return Outcome::kPass;
  Outcome outcome = Outcome::kWarning;
  for (const analysis::Finding* finding : findings) {
    if (finding->severity == Severity::kError || finding->severity == Severity::kCrash) {
      outcome = Outcome::kFail;
    }
  }
  return outcome;
}

analysis::RuleConfig make_config(bool require_operations) {
  analysis::RuleConfig config;
  for (const std::string_view assertion_id : kAssertionIds) {
    config.only.insert(std::string(rule_id_for(assertion_id)));
  }
  if (require_operations) {
    config.severity_overrides[std::string(kOperationsRule)] = Severity::kError;
  }
  return config;
}

/// The rule selection for a profile, built once per require_operations
/// value: every deployed service is checked, so per-call setup adds up.
const analysis::RuleConfig& config_for(const Profile& profile) {
  static const analysis::RuleConfig kConfigs[] = {make_config(false), make_config(true)};
  return kConfigs[profile.require_operations ? 1 : 0];
}

}  // namespace

ComplianceReport check(const wsdl::Definitions& definitions, const Profile& profile) {
  const analysis::RuleRegistry& registry = analysis::RuleRegistry::builtin();

  analysis::AnalysisInput input;
  input.definitions = &definitions;
  const analysis::AnalysisResult analyzed =
      analysis::analyze(input, config_for(profile), registry);

  std::vector<AssertionResult> results;
  for (const std::string_view assertion_id : kAssertionIds) {
    const std::string_view rule_id = rule_id_for(assertion_id);
    std::vector<const analysis::Finding*> findings;
    for (const analysis::Finding& finding : analyzed.findings) {
      if (finding.rule_id == rule_id) findings.push_back(&finding);
    }
    AssertionResult result;
    result.id = std::string(assertion_id);
    const analysis::Rule* rule = registry.find(rule_id);
    result.title = rule != nullptr ? rule->info().title : std::string(assertion_id);
    result.outcome = outcome_for(findings);
    for (const analysis::Finding* finding : findings) {
      if (!result.detail.empty()) result.detail += "; ";
      result.detail += finding->message;
    }
    results.push_back(std::move(result));
  }
  return ComplianceReport{std::move(results)};
}

}  // namespace wsx::wsi
