#include "resilience/supervisor.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "common/pool.hpp"

namespace wsx::resilience {

namespace {

Error fail(std::string code, std::string message) {
  return Error{"resilience." + std::move(code), std::move(message)};
}

/// Validates a resume journal against the campaign about to run. Every
/// mismatch is a hard error: silently resuming a different campaign (or the
/// same campaign under different knobs) would break the byte-identical
/// equivalence guarantee.
Status check_resume(const CampaignTasks& tasks, const SupervisorOptions& options) {
  const Journal& journal = *options.resume;
  if (journal.campaign != tasks.campaign) {
    return fail("resume-mismatch", "journal is for campaign '" + journal.campaign +
                                       "', not '" + tasks.campaign + "'");
  }
  if (journal.config_json != tasks.config_json) {
    return fail("resume-mismatch", "journal config fingerprint does not match this campaign");
  }
  if (journal.tasks != tasks.ids.size()) {
    return fail("resume-mismatch", "journal has " + std::to_string(journal.tasks) +
                                       " tasks, campaign has " +
                                       std::to_string(tasks.ids.size()));
  }
  if (!(journal.options == options.journal)) {
    return fail("resume-mismatch",
                "journal supervisor options do not match (checkpoint/deadline/"
                "quarantine/budget knobs must be identical on resume)");
  }
  for (const JournalEntry& entry : journal.entries) {
    if (entry.task >= tasks.ids.size() || tasks.ids[entry.task] != entry.id) {
      return fail("resume-mismatch", "journal entry for task " + std::to_string(entry.task) +
                                         " names id '" + entry.id +
                                         "' which this campaign does not");
    }
  }
  return Status::success();
}

/// Runs one task with the retry-until-quarantine loop. Never throws: every
/// failure mode folds into the returned TaskOutcome.
TaskOutcome execute_task(const CampaignTasks& tasks, const SupervisorOptions& options,
                         std::size_t index) {
  TaskOutcome outcome;
  outcome.task = index;
  outcome.id = tasks.ids[index];
  const std::size_t max_attempts = std::max<std::size_t>(1, options.journal.quarantine_after);
  TaskContext context(options.journal.task_deadline_ms);
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    context.begin_attempt();
    outcome.attempts = attempt;
    try {
      outcome.record = tasks.run(index, context);
      outcome.state = TaskState::kCompleted;
      break;
    } catch (const DeadlineExceeded& e) {
      outcome.state = TaskState::kQuarantined;
      outcome.timed_out = true;
      outcome.reason = e.what();
    } catch (const std::exception& e) {
      outcome.state = TaskState::kQuarantined;
      outcome.timed_out = false;
      outcome.reason = e.what();
    } catch (...) {
      outcome.state = TaskState::kQuarantined;
      outcome.timed_out = false;
      outcome.reason = "unknown exception";
    }
  }
  outcome.virtual_ms = context.total_ms();
  return outcome;
}

JournalEntry to_entry(const TaskOutcome& outcome) {
  JournalEntry entry;
  entry.task = outcome.task;
  entry.id = outcome.id;
  entry.state = outcome.state == TaskState::kCompleted ? JournalState::kCompleted
                                                       : JournalState::kQuarantined;
  entry.attempts = outcome.attempts;
  entry.timed_out = outcome.timed_out;
  entry.virtual_ms = outcome.virtual_ms;
  entry.record = outcome.record;
  entry.reason = outcome.reason;
  return entry;
}

void export_metrics(const SupervisorReport& report, std::size_t total,
                    const SupervisorOptions& options) {
  obs::Registry* metrics = options.metrics;
  if (metrics == nullptr) return;
  obs::add(metrics, "resilience.tasks_total", total);
  obs::add(metrics, "resilience.tasks_completed", report.completed);
  obs::add(metrics, "resilience.tasks_resumed", report.resumed);
  obs::add(metrics, "resilience.tasks_quarantined", report.quarantined);
  obs::add(metrics, "resilience.tasks_not_admitted", report.not_admitted);
  obs::add(metrics, "resilience.checkpoints_written", report.checkpoints_written);
  std::uint64_t attempts = 0;
  std::uint64_t timed_out = 0;
  for (const TaskOutcome& outcome : report.tasks) {
    if (outcome.resumed || outcome.state == TaskState::kNotAdmitted) continue;
    attempts += outcome.attempts;
    if (outcome.timed_out) ++timed_out;
  }
  obs::add(metrics, "resilience.attempts", attempts);
  obs::add(metrics, "resilience.attempts_timed_out", timed_out);
  if (report.degraded) obs::add(metrics, "resilience.budget_exhausted");
  // Budget headroom as gauges (point-in-time values, dropped from the
  // deterministic export): what a serve `stats` query or a --metrics dump
  // reports without re-deriving it from the coverage counters.
  if (options.journal.budget_tasks != 0) {
    const std::size_t used = report.completed + report.quarantined;
    metrics->gauge("resilience.budget_tasks_remaining")
        .set(static_cast<std::int64_t>(
            options.journal.budget_tasks > used ? options.journal.budget_tasks - used : 0));
  }
  if (options.journal.budget_ms != 0) {
    metrics->gauge("resilience.budget_ms_remaining")
        .set(static_cast<std::int64_t>(options.journal.budget_ms > report.virtual_ms_total
                                           ? options.journal.budget_ms - report.virtual_ms_total
                                           : 0));
  }
}

}  // namespace

const char* to_string(TaskState state) {
  switch (state) {
    case TaskState::kCompleted:
      return "completed";
    case TaskState::kQuarantined:
      return "quarantined";
    case TaskState::kNotAdmitted:
      return "not-admitted";
  }
  return "unknown";
}

Result<SupervisorReport> supervise(const CampaignTasks& tasks, const SupervisorOptions& options) {
  const std::size_t total = tasks.ids.size();
  SupervisorReport report;
  report.tasks.resize(total);

  // Map resumed entries by task index for O(1) lookup during admission.
  std::unordered_map<std::size_t, const JournalEntry*> resumed;
  if (options.resume != nullptr) {
    Status valid = check_resume(tasks, options);
    if (!valid.ok()) return valid.error();
    for (const JournalEntry& entry : options.resume->entries) {
      resumed.emplace(entry.task, &entry);
    }
  }

  std::ofstream journal_file;
  if (!options.checkpoint_path.empty()) {
    // A fresh run truncates and writes the header; a resume appends after
    // the entries already on disk.
    const auto mode = options.resume != nullptr ? std::ios::app : std::ios::trunc;
    journal_file.open(options.checkpoint_path, std::ios::out | mode);
    if (!journal_file.is_open()) {
      return fail("journal-io", "cannot open journal '" + options.checkpoint_path +
                                    "' for writing");
    }
    if (options.resume == nullptr) {
      Journal header;
      header.campaign = tasks.campaign;
      header.config_json = tasks.config_json;
      header.tasks = total;
      header.options = options.journal;
      journal_file << header.header_line() << '\n';
      journal_file.flush();
    }
  }

  // Block size: the checkpoint cadence. 0 means "one block" — no
  // intermediate checkpoints, everything journaled at the end. Block
  // boundaries exist only to checkpoint, enforce budgets and honour
  // trip_after_tasks; when none of those are in play the whole campaign is
  // one block, sparing a pool-wide synchronisation every cadence tasks.
  const bool blocks_matter = journal_file.is_open() || options.journal.budget_tasks != 0 ||
                             options.journal.budget_ms != 0 || options.trip_after_tasks != 0;
  const std::size_t cadence =
      !blocks_matter || options.journal.checkpoint_every == 0
          ? std::max<std::size_t>(1, total)
          : options.journal.checkpoint_every;
  const std::size_t workers = resolve_workers(options.jobs);

  // One pool for the whole run, built lazily on the first block that needs
  // threads. WorkerPool supports submit/wait/submit cycles, and a fresh
  // pool per block would pay a spawn/join cycle at every checkpoint — at
  // the default cadence that, not the bookkeeping, dominates supervisor
  // overhead.
  std::unique_ptr<WorkerPool> pool;

  std::size_t processed = 0;  // completed + quarantined so far (resumed included)
  for (std::size_t begin = 0; begin < total; begin += cadence) {
    const std::size_t end = std::min(total, begin + cadence);

    // Budget check — block boundary only, over totals accumulated in task
    // order, so the decision is identical at any worker count and for any
    // interrupt/resume split.
    const bool tasks_exhausted =
        options.journal.budget_tasks != 0 && processed >= options.journal.budget_tasks;
    const bool ms_exhausted =
        options.journal.budget_ms != 0 && report.virtual_ms_total >= options.journal.budget_ms;
    if (tasks_exhausted || ms_exhausted) {
      report.degraded = true;
      for (std::size_t i = begin; i < total; ++i) {
        report.tasks[i].task = i;
        report.tasks[i].id = tasks.ids[i];
        report.tasks[i].state = TaskState::kNotAdmitted;
        ++report.not_admitted;
      }
      break;
    }

    // Admit the block: resumed tasks replay their journal entry, the rest
    // execute on the pool (inline when one worker suffices).
    std::vector<std::size_t> to_run;
    for (std::size_t i = begin; i < end; ++i) {
      const auto found = resumed.find(i);
      if (found == resumed.end()) {
        to_run.push_back(i);
        continue;
      }
      const JournalEntry& entry = *found->second;
      TaskOutcome& outcome = report.tasks[i];
      outcome.task = i;
      outcome.id = entry.id;
      outcome.state = entry.state == JournalState::kCompleted ? TaskState::kCompleted
                                                              : TaskState::kQuarantined;
      outcome.resumed = true;
      outcome.attempts = entry.attempts;
      outcome.timed_out = entry.timed_out;
      outcome.virtual_ms = entry.virtual_ms;
      outcome.record = entry.record;
      outcome.reason = entry.reason;
    }
    if (workers <= 1 || to_run.size() <= 1) {
      for (const std::size_t i : to_run) {
        report.tasks[i] = execute_task(tasks, options, i);
      }
    } else {
      if (pool == nullptr) pool = std::make_unique<WorkerPool>(workers);
      for (const std::size_t i : to_run) {
        pool->submit([&, i] { report.tasks[i] = execute_task(tasks, options, i); });
      }
      pool->wait();  // execute_task never throws; nothing to rethrow
    }

    // Tally the block in task order and checkpoint the newly executed
    // entries before admitting more work.
    for (std::size_t i = begin; i < end; ++i) {
      const TaskOutcome& outcome = report.tasks[i];
      if (outcome.state == TaskState::kCompleted) ++report.completed;
      if (outcome.state == TaskState::kQuarantined) ++report.quarantined;
      if (outcome.resumed) {
        ++report.resumed;
      } else {
        ++report.executed;
      }
      report.virtual_ms_total += outcome.virtual_ms;
      ++processed;
      if (journal_file.is_open() && !outcome.resumed) {
        journal_file << Journal::entry_line(to_entry(outcome)) << '\n';
      }
    }
    if (journal_file.is_open()) {
      journal_file.flush();
      ++report.checkpoints_written;
      if (!journal_file.good()) {
        return fail("journal-io", "write to journal '" + options.checkpoint_path + "' failed");
      }
    }

    // Crash simulation: the process "dies" right after a checkpoint, the
    // worst-case-but-recoverable interrupt point.
    if (options.trip_after_tasks != 0 && report.executed >= options.trip_after_tasks &&
        end < total) {
      report.tripped = true;
      for (std::size_t i = end; i < total; ++i) {
        report.tasks[i].task = i;
        report.tasks[i].id = tasks.ids[i];
        report.tasks[i].state = TaskState::kNotAdmitted;
        ++report.not_admitted;
      }
      break;
    }
  }

  export_metrics(report, total, options);
  return report;
}

std::vector<const JournalEntry*> resumed_records(const CampaignTasks& tasks,
                                                 const Journal* resume) {
  std::vector<const JournalEntry*> entries;
  if (resume == nullptr || resume->campaign != tasks.campaign ||
      resume->config_json != tasks.config_json || resume->tasks != tasks.ids.size()) {
    return entries;
  }
  for (const JournalEntry& entry : resume->entries) {
    if (entry.state == JournalState::kCompleted && entry.task < tasks.ids.size() &&
        tasks.ids[entry.task] == entry.id) {
      entries.push_back(&entry);
    }
  }
  return entries;
}

std::string coverage_gap(const SupervisorReport& report) {
  for (const TaskOutcome& outcome : report.tasks) {
    if (outcome.state == TaskState::kCompleted) continue;
    std::string gap = "task '" + outcome.id + "' did not complete: " + to_string(outcome.state);
    if (outcome.state == TaskState::kQuarantined) {
      gap += " after " + std::to_string(outcome.attempts) + " attempt(s): " + outcome.reason;
    }
    return gap;
  }
  return {};
}

std::string supervisor_json(const SupervisorReport& report) {
  json::ArrayWriter quarantine;
  for (const TaskOutcome& outcome : report.tasks) {
    if (outcome.state != TaskState::kQuarantined) continue;
    json::ObjectWriter entry;
    entry.field("id", outcome.id)
        .field("attempts", outcome.attempts)
        .field("timed_out", outcome.timed_out)
        .field("resumed", outcome.resumed)
        .field("reason", outcome.reason);
    quarantine.raw_item(entry.str());
  }
  json::ObjectWriter writer;
  writer.field("degraded", report.degraded)
      .field("tasks", report.tasks.size())
      .field("completed", report.completed)
      .field("resumed", report.resumed)
      .field("quarantined", report.quarantined)
      .field("not_admitted", report.not_admitted)
      .field("virtual_ms", static_cast<std::size_t>(report.virtual_ms_total))
      .raw_field("quarantine", quarantine.str());
  return writer.str();
}

std::string supervisor_markdown(const SupervisorReport& report) {
  std::string out = "## Supervisor\n\n";
  out += "- degraded: ";
  out += report.degraded ? "**yes** (budget exhausted before full coverage)" : "no";
  out += "\n";
  out += "- coverage: " + std::to_string(report.completed) + "/" +
         std::to_string(report.tasks.size()) + " tasks completed";
  if (report.resumed != 0) {
    out += " (" + std::to_string(report.resumed) + " resumed from the journal)";
  }
  out += "\n";
  out += "- quarantined: " + std::to_string(report.quarantined) + "\n";
  out += "- not admitted: " + std::to_string(report.not_admitted) + "\n";
  out += "- virtual time: " + std::to_string(report.virtual_ms_total) + " ms\n";
  bool header_written = false;
  for (const TaskOutcome& outcome : report.tasks) {
    if (outcome.state != TaskState::kQuarantined) continue;
    if (!header_written) {
      out += "\n### Quarantine\n\n";
      out += "| task | attempts | timed out | reason |\n";
      out += "|------|----------|-----------|--------|\n";
      header_written = true;
    }
    out += "| " + outcome.id + " | " + std::to_string(outcome.attempts) + " | " +
           (outcome.timed_out ? "yes" : "no") + " | " + outcome.reason + " |\n";
  }
  return out;
}

}  // namespace wsx::resilience
