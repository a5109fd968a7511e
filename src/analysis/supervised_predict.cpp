#include "analysis/supervised_predict.hpp"

#include <utility>

#include "analysis/corpus_tasks.hpp"
#include "common/codec.hpp"

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
    const PredictOptions& options, const SupervisedPredictOptions& supervision) {
  SupervisedPredictResult out;
  PredictReport& report = out.report;

  obs::Span run_span(options.tracer, "predict-corpus");
  const std::vector<LintJob> jobs = build_predict_corpus(options, report, run_span.id());

  obs::Span predict_span(options.tracer, "pass:predict", run_span);
  obs::ScopedTimer predict_timer = obs::timer(options.metrics, "predict.phase.predict_us");
  const CorpusCampaign campaign{"predict-corpus", predict_config_json(options),
                                "predict.bad-record", options.jobs, options.metrics};
  const Status ran = run_corpus_tasks(
      campaign, jobs, supervision,
      [&options](const LintJob& job) {
        obs::ScopedTimer one = obs::timer(options.metrics, "predict.step.predict_us");
        return predict_service_job(job);
      },
      out.supervisor, report.services);
  if (!ran.ok()) return ran.error();
  predict_span.annotate("predicted", report.services.size());
  predict_span.end();
  predict_timer.stop();

  // The join + scoring pass runs over exactly the folded services.
  finalize_predict_report(report, options, run_span.id());
  return out;
}

}  // namespace wsx::analysis::predict
