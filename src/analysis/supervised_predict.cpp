#include "analysis/supervised_predict.hpp"

#include <numeric>
#include <utility>

#include "common/codec.hpp"
#include "frameworks/registry.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis::predict {
namespace {

/// The predict-corpus fingerprint's fields.
constexpr auto predict_fields = [](auto& v, PredictOptions& options) {
  v("java", options.java_spec);
  v("dotnet", options.dotnet_spec);
  v("shape", options.shape);
  v("join_study", options.join_study);
};

}  // namespace

std::string predict_config_json(const PredictOptions& options) {
  return codec::encode(options, predict_fields);
}

Result<PredictOptions> predict_config_from_json(std::string_view text) {
  return codec::decode_value<PredictOptions>(text, predict_fields, "resilience.bad-config",
                                             "predict-corpus config");
}

Result<SupervisedPredictResult> predict_corpus_supervised(
    const PredictOptions& options, const resilience::Supervision& supervision) {
  SupervisedPredictResult out;
  PredictReport& report = out.report;

  obs::Span run_span(options.tracer, "predict-corpus");
  // The corpus the study deploys (§III.A), one task per bindable service.
  frameworks::Corpus corpus(options.java_spec, options.dotnet_spec, options.shape);
  report.servers = corpus.servers.size();

  obs::Span predict_span(options.tracer, "pass:predict", run_span);
  obs::ScopedTimer predict_timer = obs::timer(options.metrics, "predict.phase.predict_us");
  // One slot per task, allocated up front. A task deploys its service and
  // predicts the served text into its slot, charging one virtual ms.
  std::vector<ServicePredictionRecord> slots(corpus.plan.tasks.size());
  const auto run = [&](std::size_t index, ServicePredictionRecord& slot,
                       resilience::TaskContext& context) {
    obs::ScopedTimer deploy_timer = obs::timer(options.metrics, "predict.step.deploy_us");
    const Result<frameworks::DeployedService> deployed = corpus.deploy(index);
    deploy_timer.stop();
    if (deployed.ok()) {
      obs::ScopedTimer predict_one = obs::timer(options.metrics, "predict.step.predict_us");
      slot = predict_service_job(corpus.round(index).server->name(), *deployed);
    } else {
      slot = ServicePredictionRecord{};
    }
    context.charge(1);
  };
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{"predict-corpus", predict_config_json(options),
                                std::move(corpus.plan.ids), {}},
      std::span(slots), resilience::SupervisorOptions{supervision, options.jobs, options.metrics},
      run, "predict.bad-record");
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold the completed slots in corpus order. The services no round binds
  // and those whose task found deploy() refusing them are deploy refusals.
  std::size_t refused_in_tasks = 0;
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    if (outcome.state != resilience::TaskState::kCompleted) continue;
    ServicePredictionRecord& service = slots[outcome.task];
    if (service.server.empty()) {
      ++refused_in_tasks;
      continue;
    }
    report.services.push_back(std::move(service));
  }
  report.deploy_refusals = std::accumulate(corpus.plan.refused.begin(),
                                           corpus.plan.refused.end(), refused_in_tasks);
  obs::add(options.metrics, "predict.services_total",
           corpus.plan.tasks.size() - refused_in_tasks);
  obs::add(options.metrics, "predict.deploy_refusals", report.deploy_refusals);
  predict_span.annotate("predicted", report.services.size());
  predict_span.end();
  predict_timer.stop();

  // The join + scoring pass runs over exactly the folded services.
  finalize_predict_report(report, options, run_span.id());
  return out;
}

}  // namespace wsx::analysis::predict
