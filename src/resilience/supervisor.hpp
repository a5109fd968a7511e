// supervisor.hpp — the checkpointed, deadline-aware campaign supervisor.
//
// A campaign hands the supervisor an ordered list of task ids plus a pure
// `run(index)` function; the supervisor executes the tasks on the shared
// WorkerPool in fixed blocks of `checkpoint_every`, journaling each block
// before admitting the next. Within that loop it provides the four
// robustness behaviours the ISSUE names:
//
//   * checkpoint/resume — finished tasks are appended to the journal, and a
//     resumed run replays their records instead of re-executing them;
//   * per-task deadlines — tasks charge virtual milliseconds through their
//     TaskContext and are aborted (DeadlineExceeded) when they cross the
//     deadline, instead of hanging the pool;
//   * poison quarantine — a task that throws or times out on every one of
//     its `quarantine_after` attempts is parked with its diagnostic and
//     never retried, including across resumes;
//   * graceful degradation — virtual-ms / task budgets are evaluated at
//     block boundaries only, over totals accumulated in task order, so the
//     admission decision is identical at any worker count and identical
//     between straight and resumed runs.
//
// Determinism contract: `run` must be a pure function of the task index.
// Given that, the sequence of TaskOutcomes — and therefore any report
// folded from it — is byte-identical for any jobs value and for any
// interrupt/resume split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "resilience/journal.hpp"

namespace wsx::resilience {

/// Thrown out of TaskContext::charge() when a task crosses its deadline.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(std::uint64_t deadline_ms)
      : std::runtime_error("task deadline of " + std::to_string(deadline_ms) +
                           " virtual ms exceeded") {}
};

/// Per-attempt execution context handed to every task. Tasks report the
/// virtual time they consume through charge(); the deadline applies to one
/// attempt, while total_ms() accumulates across retries (it feeds the
/// campaign budget).
class TaskContext {
 public:
  explicit TaskContext(std::uint64_t deadline_ms) : deadline_ms_(deadline_ms) {}

  /// Adds `ms` of virtual time; throws DeadlineExceeded when the attempt
  /// crosses the deadline (0 = no deadline).
  void charge(std::uint64_t ms) {
    attempt_ms_ += ms;
    total_ms_ += ms;
    if (deadline_ms_ != 0 && attempt_ms_ > deadline_ms_) {
      throw DeadlineExceeded(deadline_ms_);
    }
  }

  std::uint64_t attempt_ms() const { return attempt_ms_; }
  std::uint64_t total_ms() const { return total_ms_; }

  /// Starts the next attempt: the per-attempt meter resets, the total
  /// carries over.
  void begin_attempt() { attempt_ms_ = 0; }

 private:
  std::uint64_t deadline_ms_;
  std::uint64_t attempt_ms_ = 0;
  std::uint64_t total_ms_ = 0;
};

/// A campaign, flattened to the shape the supervisor understands: a stable
/// name, a canonical config fingerprint, an ordered task list, and a pure
/// task function returning the task's result record as JSON text.
struct CampaignTasks {
  /// "study" | "communication" | "chaos" | "propcheck" | "lint-corpus" |
  /// "predict-corpus"
  std::string campaign;
  std::string config_json;       ///< canonical config (journal fingerprint)
  std::vector<std::string> ids;  ///< one stable id per task, in task order
  std::function<std::string(std::size_t index, TaskContext& context)> run;
};

/// What a supervised campaign run asks of the supervisor besides its tasks:
/// the journal knobs, the checkpoint file, the journal to resume and the
/// crash drill. Every supervised campaign takes one; its worker count and
/// sinks come from the campaign's own config.
struct Supervision {
  JournalOptions journal;        ///< the deterministic knobs (also journaled)
  std::string checkpoint_path;   ///< journal file; "" = no checkpointing
  const Journal* resume = nullptr;  ///< parsed journal to resume from
  /// Crash simulation for tests/CI: after a block whose checkpoint brought
  /// the number of tasks *executed this process* to >= this value, stop as
  /// if the process died. 0 = never trip.
  std::size_t trip_after_tasks = 0;
};

/// The supervisor's options: a campaign's Supervision plus its worker count
/// and metrics sink.
struct SupervisorOptions : Supervision {
  std::size_t jobs = 1;          ///< worker threads; 0 = hardware
  obs::Registry* metrics = nullptr;  ///< supervisor counters, when non-null
};

/// Terminal state of one task after a supervised run.
enum class TaskState {
  kCompleted,    ///< ran (or was resumed) to completion; `record` is set
  kQuarantined,  ///< failed/timed out every attempt; parked with `reason`
  kNotAdmitted,  ///< never started: budget exhausted or run tripped
};

const char* to_string(TaskState state);

struct TaskOutcome {
  std::size_t task = 0;
  std::string id;
  TaskState state = TaskState::kNotAdmitted;
  bool resumed = false;          ///< replayed from the journal, not executed
  std::size_t attempts = 0;
  bool timed_out = false;        ///< quarantine was caused by the deadline
  std::uint64_t virtual_ms = 0;  ///< virtual time consumed (all attempts)
  std::string record;            ///< result payload JSON; "" unless completed
  std::string reason;            ///< quarantine diagnostic
};

struct SupervisorReport {
  std::vector<TaskOutcome> tasks;  ///< every task, in task order
  bool degraded = false;           ///< a budget stopped admission
  bool tripped = false;            ///< the crash-simulation trip fired
  std::size_t completed = 0;       ///< tasks with a record (resumed included)
  std::size_t resumed = 0;         ///< tasks replayed from the journal
  std::size_t quarantined = 0;     ///< parked tasks (resumed included)
  std::size_t not_admitted = 0;    ///< tasks never started
  std::size_t executed = 0;        ///< tasks actually run by this process
  std::uint64_t virtual_ms_total = 0;
  std::size_t checkpoints_written = 0;
};

/// Runs the campaign under supervision. Errors use the "resilience."
/// prefix (resume mismatches, unwritable checkpoint files).
Result<SupervisorReport> supervise(const CampaignTasks& tasks, const SupervisorOptions& options);

/// The completed entries of `resume` (null = none) whose records
/// supervise_slots decodes before it runs, so an unusable journal fails
/// before it is appended to. Only a journal whose header matches `tasks`
/// contributes, and only entries whose index and id match a task;
/// supervise() refuses the rest.
std::vector<const JournalEntry*> resumed_records(const CampaignTasks& tasks,
                                                 const Journal* resume);

/// The record check of a campaign that has none: every decodable record is
/// usable.
struct AnyRecord {
  template <typename Slot>
  std::string operator()(const Slot&) const {
    return {};
  }
};

/// The slot protocol every per-service campaign runs `tasks` under; `run`
/// is set here. The caller allocates `slots`, one per task. Resumed records
/// are decoded into their slots before anything runs, each then passing the
/// campaign's own `check` ("" or the problem), so an unusable journal fails
/// under `bad_record` before anything is appended to it. Each executed task
/// runs as `run(index, slot, context)`; its slot is encoded as the task's
/// record only when a journal is written.
template <typename Slot, typename Run, typename Check = AnyRecord>
Result<SupervisorReport> supervise_slots(CampaignTasks tasks, std::span<Slot> slots,
                                         const SupervisorOptions& options, Run run,
                                         std::string_view bad_record = "resilience.bad-record",
                                         Check check = {}) {
  for (const JournalEntry* entry : resumed_records(tasks, options.resume)) {
    const std::string what = "task record for '" + entry->id + "'";
    Slot& slot = slots[entry->task];
    const Status decoded = codec::decode(entry->record, slot, bad_record, what);
    if (!decoded.ok()) return decoded.error();
    const std::string problem = check(slot);
    if (!problem.empty()) return Error{std::string(bad_record), what + ": " + problem};
  }
  const bool journaling = !options.checkpoint_path.empty();
  tasks.run = [slots, &run, journaling](std::size_t index, TaskContext& context) {
    run(index, slots[index], context);
    return journaling ? codec::encode(slots[index]) : std::string{};
  };
  return supervise(tasks, options);
}

/// Why a run that must cover every task falls short: names the first task
/// that did not complete and why; "" when every task completed.
std::string coverage_gap(const SupervisorReport& report);

/// Unwraps a supervised run that must cover every task, as the plain
/// campaign entry points do: throws std::runtime_error when the run failed
/// or a task did not complete, naming the task. Never returns a partial
/// result.
template <typename Supervised>
Supervised require_complete(Result<Supervised> run) {
  if (!run.ok()) throw std::runtime_error(run.error().message);
  const std::string gap = coverage_gap(run->supervisor);
  if (!gap.empty()) throw std::runtime_error(gap);
  return std::move(run).value();
}

/// The supervisor section appended to every supervised campaign report:
/// degradation mark, coverage counters, and the quarantine list. Stable
/// field order; deterministic given the same resume state.
std::string supervisor_json(const SupervisorReport& report);

/// Same content as supervisor_json, rendered as a Markdown section.
std::string supervisor_markdown(const SupervisorReport& report);

}  // namespace wsx::resilience
