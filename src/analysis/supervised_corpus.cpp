#include "analysis/supervised_corpus.hpp"

#include "analysis/corpus_pass.hpp"
#include "common/codec.hpp"

namespace wsx::analysis {

/// The rule selection's fields in the lint-corpus fingerprint.
template <class V>
void fields(V& v, RuleConfig& rules) {
  v("disabled", rules.disabled);
  v("only", rules.only);
  v("severity", rules.severity_overrides);
}

namespace {

/// The lint-corpus fingerprint's fields.
constexpr auto corpus_fields = [](auto& v, CorpusOptions& options) {
  v("java", options.java_spec);
  v("dotnet", options.dotnet_spec);
  v("shape", options.shape);
  v("rules", options.rules);
  v("join_study", options.join_study);
};

}  // namespace

std::string corpus_config_json(const CorpusOptions& options) {
  return codec::encode(options, corpus_fields);
}

Result<CorpusOptions> corpus_config_from_json(std::string_view text) {
  return codec::decode_value<CorpusOptions>(text, corpus_fields, "resilience.bad-config",
                                            "lint-corpus config");
}

Result<SupervisedCorpusResult> analyze_corpus_supervised(
    const CorpusOptions& options, const resilience::Supervision& supervision) {
  return supervise_corpus_pass<SupervisedCorpusResult>(
      {"lint", "linted"}, options, corpus_config_json(options), supervision,
      [&options](std::string_view server, const frameworks::DeployedService& service) {
        return lint_service(server, service, options.rules);
      },
      [](CorpusReport& report, const CorpusOptions& options, obs::SpanId run_span) {
        std::size_t findings = 0;
        for (const ServiceAnalysis& service : report.services) findings += service.findings.size();
        if (!report.services.empty()) obs::add(options.metrics, "lint.findings_total", findings);
        finalize_corpus_report(report, options, run_span);
      });
}

}  // namespace wsx::analysis
