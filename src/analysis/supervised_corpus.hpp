// supervised_corpus.hpp — the lint-corpus engine, run under the resilience
// supervisor (src/resilience/supervisor.hpp) on the corpus task engine
// (analysis/corpus_tasks.hpp).
//
// One task per deployed description lints it into its own slot; the
// completed slots fold in corpus order, then the join + tally passes run
// over the folded services. A task's ServiceAnalysis is journaled only when
// a checkpoint file is written. analyze_corpus is this engine with no
// journal.
#pragma once

#include <string>
#include <string_view>

#include "analysis/corpus.hpp"
#include "common/result.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis {

/// Supervisor knobs for the lint --corpus verb (jobs lives in
/// CorpusOptions::jobs).
struct SupervisedCorpusOptions {
  resilience::JournalOptions journal;
  std::string checkpoint_path;
  const resilience::Journal* resume = nullptr;
  std::size_t trip_after_tasks = 0;
};

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
/// coverage counters); rule tallies cover the folded services only.
Result<SupervisedCorpusResult> analyze_corpus_supervised(
    const CorpusOptions& options, const SupervisedCorpusOptions& supervision);

}  // namespace wsx::analysis
