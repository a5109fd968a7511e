// supervised.hpp — the study and communication engines, run under the
// resilience supervisor (src/resilience/supervisor.hpp).
//
// Each campaign is one task list plus one fold: one task per bindable
// service of each round (frameworks::bindable_services) deploys the
// service, builds its shared description and runs every client against it,
// then hands the fold compact rows, so nothing of the service outlives its
// task. All rounds' tasks share one supervise() call; the fold runs in task
// order on the calling thread. An uninterrupted run, a resumed one, and any
// jobs value therefore produce byte-identical reports (pinned by
// tests/supervised_campaign_test.cpp and tests/campaign_golden_test.cpp).
// run_study and run_communication_study are these engines with no journal.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "frameworks/registry.hpp"
#include "interop/communication.hpp"
#include "interop/study.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::interop {

/// Supervisor knobs shared by every supervised campaign verb.
struct SupervisedOptions {
  resilience::JournalOptions journal;  ///< cadence/deadline/quarantine/budget
  std::size_t jobs = 0;                ///< worker threads; 0 = hardware
  std::string checkpoint_path;         ///< journal file; "" = no checkpointing
  const resilience::Journal* resume = nullptr;  ///< parsed journal to resume
  std::size_t trip_after_tasks = 0;    ///< crash simulation (tests/CI)
};

/// Canonical config fingerprint for the study campaign, and its inverse
/// (used by `wsinterop resume` to re-derive the config from the journal
/// header). Round-trips byte-identically through json::parse + to_text.
/// Only the determinism-relevant knobs are part of the fingerprint;
/// threads/observer/sinks deliberately are not.
std::string study_config_json(const StudyConfig& config);
Result<StudyConfig> study_config_from_json(std::string_view text);

/// Fingerprint for the communication campaign (the study knobs it ignores —
/// samples, shape, gate — are excluded).
std::string communication_config_json(const StudyConfig& config);
Result<StudyConfig> communication_config_from_json(std::string_view text);

struct SupervisedStudyResult {
  StudyResult study;
  resilience::SupervisorReport supervisor;
};

/// The study engine over explicit rounds and clients. Unbindable services
/// fold as deployment refusals without a task. Each task charges one
/// virtual ms per client test and none for deploy or describe.
/// Quarantined and not-admitted tasks contribute nothing to `study`, not
/// even their Fig. 4 description counts (the supervisor report carries the
/// coverage counters that explain the gap). Spans nest as `parent_span` →
/// phase:testing → server → cell.
Result<SupervisedStudyResult> run_study_tasks(
    const std::vector<frameworks::Round>& rounds,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const StudyConfig& config, const SupervisedOptions& options,
    obs::SpanId parent_span = obs::kNoSpan);

/// Runs the full study (both catalogs, all three servers, all 11 clients)
/// through run_study_tasks.
Result<SupervisedStudyResult> run_study_supervised(const StudyConfig& config,
                                                   const SupervisedOptions& options);

struct SupervisedCommunicationResult {
  CommunicationResult communication;
  resilience::SupervisorReport supervisor;
};

/// Runs the communication study: one task per bindable service of each
/// round, one virtual ms per invocation. A service counts as deployed
/// unless its task ran and deploy() refused it.
Result<SupervisedCommunicationResult> run_communication_supervised(
    const StudyConfig& config, const SupervisedOptions& options);

}  // namespace wsx::interop
