#include "analysis/supervised_corpus.hpp"

#include <utility>

#include "analysis/corpus_tasks.hpp"
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
    const CorpusOptions& options, const SupervisedCorpusOptions& supervision) {
  SupervisedCorpusResult out;
  CorpusReport& report = out.report;

  obs::Span run_span(options.tracer, "lint-corpus");
  const std::vector<LintJob> jobs = build_lint_corpus(options, report, run_span.id());

  obs::Span lint_span(options.tracer, "pass:lint", run_span);
  obs::ScopedTimer lint_timer = obs::timer(options.metrics, "lint.phase.lint_us");
  const CorpusCampaign campaign{"lint-corpus", corpus_config_json(options),
                                "resilience.bad-record", options.jobs, options.metrics};
  const Status ran = run_corpus_tasks(
      campaign, jobs, supervision,
      [&options](const LintJob& job) {
        obs::ScopedTimer one = obs::timer(options.metrics, "lint.step.lint_us");
        return lint_service(job, options.rules);
      },
      out.supervisor, report.services);
  if (!ran.ok()) return ran.error();
  for (const ServiceAnalysis& service : report.services) {
    obs::add(options.metrics, "lint.findings_total", service.findings.size());
  }
  lint_span.annotate("linted", report.services.size());
  lint_span.end();
  lint_timer.stop();

  // The join + tally passes run over exactly the folded services.
  finalize_corpus_report(report, options, run_span.id());
  return out;
}

}  // namespace wsx::analysis
