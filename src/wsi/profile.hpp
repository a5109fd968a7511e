// profile.hpp — WS-I Basic Profile 1.1 conformance checking.
//
// The study runs every generated WSDL through the WS-I checking tool and
// treats failures as description-step warnings (paper §III.B.d). This
// module implements the BP 1.1 assertions that the studied WSDLs exercise,
// plus the paper's own §IV.A recommendation (operation minOccurs >= 1) as
// an opt-in strict rule.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "wsdl/model.hpp"

namespace wsx::wsi {

enum class Outcome { kPass, kWarning, kFail, kNotApplicable };

const char* to_string(Outcome outcome);

struct AssertionResult {
  std::string id;      ///< BP assertion id, e.g. "R2102"
  /// Short statement of the requirement: a view into the built-in rule
  /// registry, which lives for the whole program.
  std::string_view title;
  Outcome outcome = Outcome::kPass;
  std::string detail;  ///< populated for warnings/failures
};

struct Profile {
  /// The paper advocates changing the WSDL schema so that a portType must
  /// declare at least one operation (§IV.A). Off: zero operations is a
  /// warning (matching the real BP, under which JBossWS's unusable WSDLs
  /// pass). On: it is a failure.
  bool require_operations = false;
};

class ComplianceReport {
 public:
  explicit ComplianceReport(std::vector<AssertionResult> results)
      : results_(std::move(results)) {}

  const std::vector<AssertionResult>& results() const { return results_; }

  bool compliant() const;  ///< no failed assertions
  std::vector<const AssertionResult*> failures() const;
  std::vector<const AssertionResult*> warnings() const;

  /// True if the given assertion id failed.
  bool failed(std::string_view id) const;

  /// One-line summary, e.g. "FAIL (R2102, R2744); 1 warning".
  std::string summary() const;

 private:
  std::vector<AssertionResult> results_;
};

/// Runs all assertions against `definitions`.
ComplianceReport check(const wsdl::Definitions& definitions, const Profile& profile = {});

}  // namespace wsx::wsi
