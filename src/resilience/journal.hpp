// journal.hpp — the checkpoint journal a supervised campaign writes.
//
// A journal is one JSON-lines file: a header object describing the
// campaign (name, canonical config, task count, and the deterministic
// supervisor knobs), followed by one entry object per finished task,
// appended block-by-block at the checkpoint cadence. `wsinterop resume`
// parses the file back, re-derives the campaign from the header, and skips
// every journaled task — so an interrupted run finishes with a final
// report byte-identical to an uninterrupted one.
//
// The header pins the knobs that influence campaign *output* (deadlines,
// quarantine threshold, budgets, cadence): a resume silently reusing them
// is what keeps interrupted and straight runs equivalent. Worker count is
// deliberately absent — output never depends on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"

namespace wsx::resilience {

/// The supervisor knobs that affect campaign output (not throughput).
/// Stored in the journal header; a resume must run under the same values.
struct JournalOptions {
  std::size_t checkpoint_every = 64;   ///< tasks per checkpointed block
  std::uint64_t task_deadline_ms = 0;  ///< per-task virtual deadline; 0 = none
  std::size_t quarantine_after = 3;    ///< failed attempts before quarantine
  std::uint64_t budget_ms = 0;         ///< campaign virtual-ms budget; 0 = none
  std::size_t budget_tasks = 0;        ///< campaign executed-task budget; 0 = none

  friend bool operator==(const JournalOptions&, const JournalOptions&) = default;
};

/// Terminal state of one journaled task.
enum class JournalState {
  kCompleted,    ///< ran to completion; `record` holds the result payload
  kQuarantined,  ///< failed or timed out `attempts` times; parked for good
};

const char* to_string(JournalState state);
bool from_string(std::string_view text, JournalState& out);  ///< inverse of to_string

struct JournalEntry {
  std::size_t task = 0;   ///< index into the campaign's task order
  std::string id;         ///< stable task id, e.g. "Metro (Glassfish)|EchoFoo"
  JournalState state = JournalState::kCompleted;
  std::size_t attempts = 1;
  bool timed_out = false;        ///< quarantine was caused by the deadline
  std::uint64_t virtual_ms = 0;  ///< virtual time the task consumed (all attempts)
  std::string record;            ///< campaign result payload as JSON text
  std::string reason;            ///< quarantine diagnostic; "" when completed
};

/// How Journal::parse treats a malformed final record.
struct JournalParseOptions {
  /// A crash mid-append leaves a truncated last line. When set, such a
  /// trailing record — malformed JSON or missing fields, but only on the
  /// *final* non-empty line — is discarded (its task simply re-executes on
  /// resume) instead of hard-failing the whole journal. Malformed lines
  /// anywhere else, and a malformed header, remain hard errors: they mean
  /// corruption, not interruption.
  bool tolerate_truncated_tail = false;
  /// When non-null, receives a one-line diagnostic if a tail was discarded
  /// ("" when the journal parsed clean).
  std::string* diagnostic = nullptr;
};

/// A parsed (or under-construction) journal.
struct Journal {
  /// "study" | "communication" | "chaos" | "propcheck" | "lint-corpus" |
  /// "predict-corpus"
  std::string campaign;
  std::string config_json;  ///< canonical campaign config (the fingerprint)
  std::size_t tasks = 0;    ///< total tasks in the campaign
  JournalOptions options;
  std::vector<JournalEntry> entries;

  /// Renders the header line (no trailing newline).
  std::string header_line() const;

  /// Renders one entry line (no trailing newline).
  static std::string entry_line(const JournalEntry& entry);

  /// Parses a whole journal document (header + entries) through the codec
  /// (common/codec.hpp): "journal.bad-header" / "journal.bad-entry" name
  /// the line and every member it could not read. Duplicate task indices
  /// keep the first entry — an interrupted append can at worst repeat a
  /// block's lines.
  static Result<Journal> parse(std::string_view text, const JournalParseOptions& options = {});
};

}  // namespace wsx::resilience
