// supervised_predict.hpp — the predict-corpus engine, run under the
// resilience supervisor (src/resilience/supervisor.hpp) on the corpus task
// engine (analysis/corpus_tasks.hpp).
//
// One task per deployed description predicts it into its own slot; the
// completed slots fold in corpus order, then the join + scoring pass runs
// over the folded services. A task's record (record_json) is journaled only
// when a checkpoint file is written. predict_corpus is this engine with no
// journal.
#pragma once

#include <string>
#include <string_view>

#include "analysis/predict.hpp"
#include "common/result.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis::predict {

/// Supervisor knobs for the predict --corpus verb (jobs lives in
/// PredictOptions::jobs).
struct SupervisedPredictOptions {
  resilience::JournalOptions journal;
  std::string checkpoint_path;
  const resilience::Journal* resume = nullptr;
  std::size_t trip_after_tasks = 0;
};

/// Canonical config fingerprint for the predict-corpus campaign, and its
/// inverse (used by `wsinterop resume`). Round-trips byte-identically
/// through json::parse + to_text; jobs/sinks are deliberately excluded.
std::string predict_config_json(const PredictOptions& options);
Result<PredictOptions> predict_config_from_json(std::string_view text);

struct SupervisedPredictResult {
  PredictReport report;
  resilience::SupervisorReport supervisor;
};

/// Runs the corpus prediction under supervision. Quarantined or
/// not-admitted services are absent from the report (the supervisor section
/// carries the coverage counters); scores cover the folded services only.
Result<SupervisedPredictResult> predict_corpus_supervised(
    const PredictOptions& options, const SupervisedPredictOptions& supervision);

}  // namespace wsx::analysis::predict
