#include "analysis/supervised_corpus.hpp"

#include <numeric>
#include <utility>

#include "common/codec.hpp"
#include "frameworks/registry.hpp"
#include "resilience/supervisor.hpp"

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
  SupervisedCorpusResult out;
  CorpusReport& report = out.report;

  obs::Span run_span(options.tracer, "lint-corpus");
  // The corpus the study deploys (§III.A), one task per bindable service.
  frameworks::Corpus corpus(options.java_spec, options.dotnet_spec, options.shape);
  report.servers = corpus.servers.size();

  obs::Span lint_span(options.tracer, "pass:lint", run_span);
  obs::ScopedTimer lint_timer = obs::timer(options.metrics, "lint.phase.lint_us");
  // One slot per task, allocated up front. A task deploys its service and
  // lints the served text into its slot, charging one virtual ms.
  std::vector<ServiceAnalysis> slots(corpus.plan.tasks.size());
  const auto run = [&](std::size_t index, ServiceAnalysis& slot,
                       resilience::TaskContext& context) {
    obs::ScopedTimer deploy_timer = obs::timer(options.metrics, "lint.step.deploy_us");
    const Result<frameworks::DeployedService> deployed = corpus.deploy(index);
    deploy_timer.stop();
    if (deployed.ok()) {
      obs::ScopedTimer lint_one = obs::timer(options.metrics, "lint.step.lint_us");
      slot = lint_service(corpus.round(index).server->name(), *deployed, options.rules);
    } else {
      slot = ServiceAnalysis{};
    }
    context.charge(1);
  };
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{"lint-corpus", corpus_config_json(options),
                                std::move(corpus.plan.ids), {}},
      std::span(slots), resilience::SupervisorOptions{supervision, options.jobs, options.metrics},
      run);
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold the completed slots in corpus order. The services no round binds
  // and those whose task found deploy() refusing them are deploy refusals.
  std::size_t refused_in_tasks = 0;
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    if (outcome.state != resilience::TaskState::kCompleted) continue;
    ServiceAnalysis& service = slots[outcome.task];
    if (service.server.empty()) {
      ++refused_in_tasks;
      continue;
    }
    obs::add(options.metrics, "lint.findings_total", service.findings.size());
    report.services.push_back(std::move(service));
  }
  report.deploy_refusals = std::accumulate(corpus.plan.refused.begin(),
                                           corpus.plan.refused.end(), refused_in_tasks);
  obs::add(options.metrics, "lint.services_total", corpus.plan.tasks.size() - refused_in_tasks);
  obs::add(options.metrics, "lint.deploy_refusals", report.deploy_refusals);
  lint_span.annotate("linted", report.services.size());
  lint_span.end();
  lint_timer.stop();

  // The join + tally passes run over exactly the folded services.
  finalize_corpus_report(report, options, run_span.id());
  return out;
}

}  // namespace wsx::analysis
