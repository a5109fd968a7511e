// assertions.cpp — the BP 1.1 checker as a thin adapter over the
// wsx::analysis rule registry. The assertion implementations live in
// src/analysis/rules_wsi.cpp (ids R2xxx) and rules_schema.cpp (WSX1001,
// the paper's §IV.A recommendation, surfaced here under its legacy id
// WSX-OP1); this file only maps findings back onto AssertionResults so
// existing callers compile and behave unchanged.
#include <array>
#include <iterator>
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

/// One row of the report: the assertion, the rule that implements it and
/// its title (the rule's, which lives in the built-in registry).
struct Assertion {
  std::string_view id;
  std::string_view rule_id;
  std::string_view title;
};

/// The assertion table and the rule selection of each require_operations
/// value, resolved once against the built-in registry: every deployed
/// service is checked, so per-call setup adds up.
struct Table {
  Table() : selections{analysis::RuleSelection{make_config(false)},
                       analysis::RuleSelection{make_config(true)}} {
    const analysis::RuleRegistry& registry = analysis::RuleRegistry::builtin();
    for (std::size_t i = 0; i < assertions.size(); ++i) {
      const std::string_view id = kAssertionIds[i];
      const analysis::Rule* rule = registry.find(rule_id_for(id));
      assertions[i] = {id, rule_id_for(id),
                       rule != nullptr ? std::string_view(rule->info().title) : id};
    }
  }

  analysis::RuleSelection selections[2];
  std::array<Assertion, std::size(kAssertionIds)> assertions;
};

const Table& table() {
  static const Table kTable;
  return kTable;
}

}  // namespace

ComplianceReport check(const wsdl::Definitions& definitions, const Profile& profile) {
  const Table& rows = table();
  analysis::AnalysisInput input;
  input.definitions = &definitions;
  const analysis::AnalysisResult analyzed =
      rows.selections[profile.require_operations ? 1 : 0].analyze(input);

  std::vector<AssertionResult> results;
  results.reserve(rows.assertions.size());
  for (const Assertion& assertion : rows.assertions) {
    AssertionResult& result = results.emplace_back();
    result.id = std::string(assertion.id);
    result.title = assertion.title;
    // Any finding makes the assertion a warning, an error or crash a
    // failure; the detail joins the findings' messages in emission order.
    for (const analysis::Finding& finding : analyzed.findings) {
      if (finding.rule_id != assertion.rule_id) continue;
      if (result.outcome == Outcome::kPass) result.outcome = Outcome::kWarning;
      if (finding.severity == Severity::kError || finding.severity == Severity::kCrash) {
        result.outcome = Outcome::kFail;
      }
      if (!result.detail.empty()) result.detail += "; ";
      result.detail += finding.message;
    }
  }
  return ComplianceReport{std::move(results)};
}

}  // namespace wsx::wsi
