#include "analysis/supervised_predict.hpp"

#include "analysis/corpus_pass.hpp"
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
    const PredictOptions& options, const resilience::Supervision& supervision) {
  return supervise_corpus_pass<SupervisedPredictResult>(
      {"predict", "predicted", "predict.bad-record"}, options, predict_config_json(options),
      supervision, predict_service_job, finalize_predict_report);
}

}  // namespace wsx::analysis::predict
