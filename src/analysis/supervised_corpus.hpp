// supervised_corpus.hpp — the lint-corpus pass of the corpus engine
// (corpus_pass.hpp), run under the resilience supervisor
// (src/resilience/supervisor.hpp).
//
// Each task lints one deployed service's served text into its slot; the
// join + tally passes run over the folded services. A task's
// ServiceAnalysis is journaled only when a checkpoint file is written.
// analyze_corpus is this pass with no journal.
#pragma once

#include <string>
#include <string_view>

#include "analysis/corpus.hpp"
#include "common/result.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis {

/// Canonical config fingerprint for the lint-corpus campaign, and its
/// inverse (used by `wsinterop resume`). Round-trips byte-identically
/// through json::parse + to_text; jobs/sinks are deliberately excluded.
std::string corpus_config_json(const CorpusOptions& options);
Result<CorpusOptions> corpus_config_from_json(std::string_view text);

struct SupervisedCorpusResult {
  CorpusReport report;
  resilience::SupervisorReport supervisor;
};

/// Runs the corpus lint under supervision. Quarantined or not-admitted
/// services are absent from the report (the supervisor section carries the
/// coverage counters); rule tallies cover the folded services only. A
/// service is deployed only by a task that runs.
Result<SupervisedCorpusResult> analyze_corpus_supervised(
    const CorpusOptions& options, const resilience::Supervision& supervision);

}  // namespace wsx::analysis
