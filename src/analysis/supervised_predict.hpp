// supervised_predict.hpp — the predict-corpus pass of the corpus engine
// (corpus_pass.hpp), run under the resilience supervisor
// (src/resilience/supervisor.hpp).
//
// Each task predicts one deployed service's served text into its slot; the
// join + scoring pass runs over the folded services. A task's record
// (record_json) is journaled only when a checkpoint file is written.
// predict_corpus is this pass with no journal.
#pragma once

#include <string>
#include <string_view>

#include "analysis/predict.hpp"
#include "common/result.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis::predict {

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
/// carries the coverage counters); scores cover the folded services only. A
/// service is deployed only by a task that runs.
Result<SupervisedPredictResult> predict_corpus_supervised(
    const PredictOptions& options, const resilience::Supervision& supervision);

}  // namespace wsx::analysis::predict
