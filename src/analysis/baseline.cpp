#include "analysis/baseline.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace wsx::analysis {

std::string Baseline::fingerprint(const Finding& finding) {
  return hex16(
      fnv1a(finding.rule_id + "|" + finding.subject + "|" + finding.message, kFnvShortBasis));
}

std::string Baseline::entry_key(const Finding& finding) {
  return finding.rule_id + "\t" + finding.location.uri + "\t" + fingerprint(finding);
}

Baseline Baseline::from_findings(const std::vector<Finding>& findings) {
  Baseline baseline;
  for (const Finding& finding : findings) baseline.entries_.insert(entry_key(finding));
  return baseline;
}

Result<Baseline> Baseline::parse(std::string_view text) {
  Baseline baseline;
  std::size_t line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{} : text.substr(eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t first_tab = line.find('\t');
    const std::size_t second_tab =
        first_tab == std::string_view::npos ? std::string_view::npos
                                            : line.find('\t', first_tab + 1);
    if (first_tab == std::string_view::npos || second_tab == std::string_view::npos ||
        line.find('\t', second_tab + 1) != std::string_view::npos) {
      return Error{"baseline.malformed-line",
                   "line " + std::to_string(line_number) +
                       ": expected rule_id<TAB>uri<TAB>fingerprint"};
    }
    baseline.entries_.insert(std::string(line));
  }
  return baseline;
}

std::string Baseline::str() const {
  std::string out = "# wsinterop lint baseline: rule_id<TAB>uri<TAB>fingerprint\n";
  for (const std::string& entry : entries_) {  // std::set iterates sorted
    out += entry;
    out += '\n';
  }
  return out;
}

bool Baseline::suppresses(const Finding& finding) const {
  return entries_.count(entry_key(finding)) != 0;
}

std::vector<Finding> apply_baseline(std::vector<Finding> findings, const Baseline& baseline) {
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&baseline](const Finding& finding) {
                                  return baseline.suppresses(finding);
                                }),
                 findings.end());
  return findings;
}

}  // namespace wsx::analysis
