// supervised.hpp — the propcheck engine, run under the resilience
// supervisor. One task per bindable service deploys the service, builds its
// shared description and corpus, and replays that corpus through every
// client pair, charging the virtual wire cost against the per-task
// deadline. All servers' tasks share one supervise() call and fold in task
// order. A deadline-quarantined service folds every client cell as
// kTimedOut for its whole corpus, so the matrix still accounts for the full
// generated population. Checkpoint/resume is byte-identical at any worker
// count because the corpus is a pure function of (config, ids).
// run_propcheck is this engine with no journal.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/codec.hpp"
#include "common/result.hpp"
#include "gen/campaign.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::gen {

/// Canonical config fingerprint for the propcheck campaign, and its
/// inverse (used by `wsinterop resume`). Round-trips byte-identically
/// through json::parse + to_text; jobs/sinks are deliberately excluded.
std::string gen_config_json(const GenConfig& config);
Result<GenConfig> gen_config_from_json(std::string_view text);

template <class V>
void fields(V& v, PropFailure& failure) {
  v("id", failure.case_id);
  v("k", failure.kind);
  v("d", failure.detail);
  v("p", failure.payload);
  v("s", failure.shrunk);
  v("n", failure.shrink_steps);
}

template <class V>
void fields(V& v, PairDelta& delta) {
  v("o", delta.outcomes);
  v("f", delta.failures);
  v("vms", delta.virtual_ms);
}

/// A propcheck task's journal record: one pair delta per client, read and
/// written in place in the task's slots; none when deploy() refused the
/// service.
struct PropcheckRecord {
  std::span<PairDelta> clients;
};

template <class V>
void fields(V& v, PropcheckRecord& record) {
  v("clients", record.clients);
}

struct SupervisedGenResult {
  PropcheckResult propcheck;
  resilience::SupervisorReport supervisor;
};

/// Runs the propcheck campaign. A task that did not complete re-derives
/// its corpus on the calling thread, so `services` and `cases` count every
/// service deploy() accepts, whatever the coverage.
Result<SupervisedGenResult> run_propcheck_supervised(const GenConfig& config,
                                                     const resilience::Supervision& supervision);

}  // namespace wsx::gen
