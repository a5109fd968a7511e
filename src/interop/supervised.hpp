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
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"
#include "common/diagnostics.hpp"
#include "frameworks/registry.hpp"
#include "interop/communication.hpp"
#include "interop/study.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::interop {

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

// --- Task records (the journal's payload; common/codec.hpp) ---------------

/// What the description step established about one service.
struct ServiceFacts {
  bool refused = false;          ///< deploy() refused the service
  bool wsi_failed = false;       ///< the published WSDL fails WS-I
  bool zero_operations = false;  ///< the published WSDL exposes no operations

  /// A description-step warning (§III.B.d): failed WS-I or unusable.
  bool flagged() const { return wsi_failed || zero_operations; }
  /// True when no client sees the service: refused, or withdrawn by the
  /// deploy-time WS-I gate.
  bool withdrawn(bool wsi_deploy_gate) const {
    return refused || (wsi_deploy_gate && flagged());
  }
};

/// One client test, reduced to what the fold reads.
struct FoldRow {
  bool gw = false;  ///< generation warning
  bool ge = false;  ///< generation error
  bool cw = false;  ///< compilation warning
  bool ce = false;  ///< compilation error
  bool art = false;  ///< artifacts generated
  std::vector<std::string> codes;  ///< unique error codes, first-seen order
  /// First error, the cell-sample candidate; out of line because the fold
  /// keeps a row per test until the run ends and most tests have none.
  /// Only it is journaled: the samples cap means nothing else is reported.
  std::unique_ptr<Diagnostic> first;
};

template <class V>
void fields(V& v, FoldRow& row) {
  v("gw", row.gw);
  v("ge", row.ge);
  v("cw", row.cw);
  v("ce", row.ce);
  v("art", row.art);
  v("codes", row.codes);
  v("first", row.first);
}

/// A study task's record: the service's facts, then one row per client,
/// read and written in place in the task's row slots (none when the
/// service is withdrawn).
struct StudyRecord {
  ServiceFacts facts;
  std::span<FoldRow> clients;
};

template <class V>
void fields(V& v, StudyRecord& record) {
  v("refused", record.facts.refused);
  v("wsi_failed", record.facts.wsi_failed);
  v("zero_ops", record.facts.zero_operations);
  v("clients", record.clients);
}

template <class V>
void fields(V& v, InvocationOutcome& invocation) {
  v("o", codec::Ordinal{invocation.outcome, kCommOutcomeCount});
  v("st", invocation.http_status);
}

/// A communication task's record: the sniffer's count, then one invocation
/// per client in the task's slots (none when deploy() refused the service).
struct CommunicationRecord {
  std::size_t sniffed = 0;
  std::span<InvocationOutcome> clients;
};

template <class V>
void fields(V& v, CommunicationRecord& record) {
  v("sniffed", record.sniffed);
  v("clients", record.clients);
}

struct SupervisedStudyResult {
  StudyResult study;
  resilience::SupervisorReport supervisor;
};

/// The study engine over explicit rounds, their plan
/// (frameworks::bindable_services) and clients. Unbindable services fold as
/// deployment refusals without a task. Each task charges one virtual ms per
/// client test and none for deploy or describe.
/// Quarantined and not-admitted tasks contribute nothing to `study`, not
/// even their Fig. 4 description counts (the supervisor report carries the
/// coverage counters that explain the gap). Spans nest as `parent_span` →
/// phase:testing → server → cell.
Result<SupervisedStudyResult> run_study_tasks(
    const std::vector<frameworks::Round>& rounds, frameworks::RoundTasks plan,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const StudyConfig& config, const resilience::Supervision& supervision,
    obs::SpanId parent_span = obs::kNoSpan);

/// Runs the full study (the corpus plan of both catalogs on all three
/// servers, all 11 clients) through run_study_tasks.
Result<SupervisedStudyResult> run_study_supervised(const StudyConfig& config,
                                                   const resilience::Supervision& supervision);

struct SupervisedCommunicationResult {
  CommunicationResult communication;
  resilience::SupervisorReport supervisor;
};

/// Runs the communication study: one task per bindable service of each
/// round, one virtual ms per invocation. A service counts as deployed
/// unless its task ran and deploy() refused it.
Result<SupervisedCommunicationResult> run_communication_supervised(
    const StudyConfig& config, const resilience::Supervision& supervision);

}  // namespace wsx::interop
