// Tests for the resilience supervisor (src/resilience/*): journal
// round-trips, checkpoint/resume equivalence, per-task deadlines, poison
// quarantine, budget degradation, and the determinism contract — the
// outcome sequence is identical for any worker count and for any
// interrupt/resume split.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "resilience/journal.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::resilience {
namespace {

/// A synthetic campaign of `n` tasks: task i charges `cost` virtual ms and
/// returns the record {"task":i}. Tasks listed in `poison` throw instead.
CampaignTasks make_campaign(std::size_t n, std::uint64_t cost = 1,
                            std::vector<std::size_t> poison = {}) {
  CampaignTasks tasks;
  tasks.campaign = "synthetic";
  tasks.config_json = "{\"n\":" + std::to_string(n) + "}";
  for (std::size_t i = 0; i < n; ++i) {
    tasks.ids.push_back("task-" + std::to_string(i));
  }
  tasks.run = [cost, poison = std::move(poison)](std::size_t index, TaskContext& context) {
    context.charge(cost);
    for (const std::size_t bad : poison) {
      if (bad == index) throw std::runtime_error("poison task " + std::to_string(index));
    }
    return "{\"task\":" + std::to_string(index) + "}";
  };
  return tasks;
}

/// Serializes the parts of a report the campaigns fold from, so two runs
/// can be compared for byte-identical equivalence. The `resumed` provenance
/// flag is deliberately excluded — it differs between a straight and a
/// resumed run without affecting any folded output.
std::string fold_fingerprint(const SupervisorReport& report) {
  std::string out;
  for (const TaskOutcome& task : report.tasks) {
    out += std::to_string(task.task) + "|" + task.id + "|" + to_string(task.state) + "|" +
           (task.timed_out ? "T" : "-") + "|" + std::to_string(task.virtual_ms) + "|" +
           task.record + "\n";
  }
  out += "degraded=" + std::to_string(report.degraded) +
         " completed=" + std::to_string(report.completed) +
         " quarantined=" + std::to_string(report.quarantined) +
         " not_admitted=" + std::to_string(report.not_admitted) +
         " virtual_ms=" + std::to_string(report.virtual_ms_total);
  return out;
}

/// A scratch journal path that is removed when the test ends.
struct ScratchJournal {
  std::string path;
  explicit ScratchJournal(const std::string& name)
      : path(testing::TempDir() + "wsx_resilience_" + name + ".journal") {
    std::remove(path.c_str());
  }
  ~ScratchJournal() { std::remove(path.c_str()); }
  std::string read() const {
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
  }
};

// ------------------------------------------------------------------ journal

TEST(Journal, HeaderAndEntriesRoundTrip) {
  Journal journal;
  journal.campaign = "study";
  journal.config_json = "{\"samples\":3}";
  journal.tasks = 7;
  journal.options.checkpoint_every = 4;
  journal.options.task_deadline_ms = 250;
  journal.options.quarantine_after = 2;
  journal.options.budget_ms = 1000;
  journal.options.budget_tasks = 6;
  JournalEntry done;
  done.task = 0;
  done.id = "Metro 2.3|EchoFoo";
  done.state = JournalState::kCompleted;
  done.attempts = 1;
  done.virtual_ms = 12;
  done.record = "{\"ok\":true}";
  JournalEntry parked;
  parked.task = 3;
  parked.id = "Axis2 1.6|EchoBar";
  parked.state = JournalState::kQuarantined;
  parked.attempts = 2;
  parked.timed_out = true;
  parked.virtual_ms = 500;
  parked.reason = "task deadline of 250 virtual ms exceeded";
  journal.entries = {done, parked};

  const std::string text = journal.header_line() + "\n" + Journal::entry_line(done) + "\n" +
                           Journal::entry_line(parked) + "\n";
  Result<Journal> parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->campaign, journal.campaign);
  EXPECT_EQ(parsed->config_json, journal.config_json);
  EXPECT_EQ(parsed->tasks, journal.tasks);
  EXPECT_TRUE(parsed->options == journal.options);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].id, done.id);
  EXPECT_EQ(parsed->entries[0].record, done.record);
  EXPECT_EQ(parsed->entries[1].id, parked.id);
  EXPECT_EQ(parsed->entries[1].state, JournalState::kQuarantined);
  EXPECT_TRUE(parsed->entries[1].timed_out);
  EXPECT_EQ(parsed->entries[1].reason, parked.reason);
}

TEST(Journal, ParseRejectsGarbage) {
  EXPECT_FALSE(Journal::parse("").ok());
  EXPECT_FALSE(Journal::parse("not json\n").ok());
  EXPECT_FALSE(Journal::parse("{\"no\":\"header fields\"}\n").ok());
}

TEST(Journal, TruncatedTailIsDiscardedOnlyInTolerantMode) {
  Journal journal;
  journal.campaign = "synthetic";
  journal.config_json = "{\"n\":2}";
  journal.tasks = 2;
  JournalEntry done;
  done.task = 0;
  done.id = "task-0";
  done.state = JournalState::kCompleted;
  done.record = "{\"task\":0}";
  const std::string full = journal.header_line() + "\n" + Journal::entry_line(done) + "\n";
  const std::string cut = full.substr(0, full.size() - 5);  // crash mid-append

  // Strict parse refuses; tolerant parse drops the tail and says so.
  EXPECT_FALSE(Journal::parse(cut).ok());
  JournalParseOptions tolerant;
  std::string note;
  tolerant.tolerate_truncated_tail = true;
  tolerant.diagnostic = &note;
  Result<Journal> parsed = Journal::parse(cut, tolerant);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(parsed->entries.empty());
  EXPECT_NE(note.find("truncated trailing record"), std::string::npos);

  // A malformed line with more journal *after* it is corruption, not a
  // crash signature: tolerant mode must still hard-fail.
  const std::string corrupt =
      journal.header_line() + "\n{\"task\":0,\"id\"\n" + Journal::entry_line(done) + "\n";
  EXPECT_FALSE(Journal::parse(corrupt, tolerant).ok());
}

TEST(Journal, CutAtEveryByteOffsetStillConvergesOnResume) {
  ScratchJournal scratch("cut");
  const CampaignTasks tasks = make_campaign(9, 2, {4});
  SupervisorOptions base;
  base.journal.checkpoint_every = 2;
  base.journal.quarantine_after = 2;

  Result<SupervisorReport> straight = supervise(tasks, base);
  ASSERT_TRUE(straight.ok());
  const std::string expected = fold_fingerprint(*straight);

  SupervisorOptions journaled = base;
  journaled.checkpoint_path = scratch.path;
  ASSERT_TRUE(supervise(tasks, journaled).ok());
  const std::string full = scratch.read();
  ASSERT_FALSE(full.empty());
  const std::size_t header_end = full.find('\n');
  ASSERT_NE(header_end, std::string::npos);

  // Simulate a crash at every possible byte: any cut at or past the end of
  // the header text must still parse in tolerant mode and resume to the
  // exact same outcome sequence as an uninterrupted run; cuts inside the
  // header lose the campaign identity and must stay hard errors.
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    JournalParseOptions tolerant;
    std::string note;
    tolerant.tolerate_truncated_tail = true;
    tolerant.diagnostic = &note;
    Result<Journal> parsed = Journal::parse(full.substr(0, cut), tolerant);
    if (cut < header_end) {
      EXPECT_FALSE(parsed.ok()) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << "cut=" << cut << ": " << parsed.error().message;
    // The diagnostic fires exactly when the cut lands mid-line.
    const bool clean_cut =
        full[cut - 1] == '\n' || (cut < full.size() && full[cut] == '\n');
    EXPECT_EQ(note.empty(), clean_cut) << "cut=" << cut;

    SupervisorOptions resumed = base;
    resumed.resume = &parsed.value();
    Result<SupervisorReport> report = supervise(tasks, resumed);
    ASSERT_TRUE(report.ok()) << "cut=" << cut << ": " << report.error().message;
    EXPECT_EQ(fold_fingerprint(*report), expected) << "cut=" << cut;
  }
}

// --------------------------------------------------------------- supervisor

TEST(Supervisor, CompletesEveryTaskInOrder) {
  const CampaignTasks tasks = make_campaign(10);
  SupervisorOptions options;
  options.jobs = 1;
  Result<SupervisorReport> report = supervise(tasks, options);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->completed, 10u);
  EXPECT_EQ(report->executed, 10u);
  EXPECT_EQ(report->quarantined, 0u);
  EXPECT_EQ(report->virtual_ms_total, 10u);
  EXPECT_FALSE(report->degraded);
  for (std::size_t i = 0; i < report->tasks.size(); ++i) {
    EXPECT_EQ(report->tasks[i].task, i);
    EXPECT_EQ(report->tasks[i].id, "task-" + std::to_string(i));
    EXPECT_EQ(report->tasks[i].record, "{\"task\":" + std::to_string(i) + "}");
  }
}

TEST(Supervisor, OutcomeSequenceIsIdenticalAcrossWorkerCounts) {
  const CampaignTasks tasks = make_campaign(23, 3, {5, 11});
  SupervisorOptions one;
  one.jobs = 1;
  one.journal.checkpoint_every = 4;
  SupervisorOptions eight = one;
  eight.jobs = 8;
  Result<SupervisorReport> a = supervise(tasks, one);
  Result<SupervisorReport> b = supervise(tasks, eight);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(fold_fingerprint(*a), fold_fingerprint(*b));
  EXPECT_EQ(supervisor_json(*a), supervisor_json(*b));
}

TEST(Supervisor, DeadlineQuarantinesTheSlowTask) {
  CampaignTasks tasks = make_campaign(4);
  tasks.run = [](std::size_t index, TaskContext& context) {
    context.charge(index == 2 ? 50 : 1);  // task 2 blows its deadline
    return std::string("{}");
  };
  SupervisorOptions options;
  options.journal.task_deadline_ms = 10;
  options.journal.quarantine_after = 3;
  Result<SupervisorReport> report = supervise(tasks, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed, 3u);
  EXPECT_EQ(report->quarantined, 1u);
  const TaskOutcome& slow = report->tasks[2];
  EXPECT_EQ(slow.state, TaskState::kQuarantined);
  EXPECT_TRUE(slow.timed_out);
  EXPECT_EQ(slow.attempts, 3u);  // retried up to the quarantine threshold
  EXPECT_EQ(slow.virtual_ms, 150u);  // all three attempts charged
  EXPECT_NE(slow.reason.find("deadline"), std::string::npos);
}

TEST(Supervisor, PoisonTaskIsParkedWithDiagnostics) {
  const CampaignTasks tasks = make_campaign(6, 1, {4});
  SupervisorOptions options;
  options.journal.quarantine_after = 2;
  Result<SupervisorReport> report = supervise(tasks, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->quarantined, 1u);
  const TaskOutcome& parked = report->tasks[4];
  EXPECT_EQ(parked.state, TaskState::kQuarantined);
  EXPECT_FALSE(parked.timed_out);
  EXPECT_EQ(parked.attempts, 2u);
  EXPECT_EQ(parked.reason, "poison task 4");
  EXPECT_TRUE(parked.record.empty());
  // The quarantine section names the parked task.
  EXPECT_NE(supervisor_markdown(*report).find("poison task 4"), std::string::npos);
  EXPECT_NE(supervisor_json(*report).find("\"id\":\"task-4\""), std::string::npos);
}

TEST(Supervisor, TaskBudgetStopsAdmissionAtBlockBoundary) {
  const CampaignTasks tasks = make_campaign(10);
  SupervisorOptions options;
  options.journal.checkpoint_every = 2;
  options.journal.budget_tasks = 3;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    options.jobs = jobs;
    Result<SupervisorReport> report = supervise(tasks, options);
    ASSERT_TRUE(report.ok());
    // Blocks of 2: after two blocks processed=4 >= 3, so admission stops.
    EXPECT_TRUE(report->degraded);
    EXPECT_EQ(report->completed, 4u);
    EXPECT_EQ(report->not_admitted, 6u);
    EXPECT_EQ(report->tasks[4].state, TaskState::kNotAdmitted);
  }
}

TEST(Supervisor, VirtualMsBudgetStopsAdmissionAtBlockBoundary) {
  const CampaignTasks tasks = make_campaign(10, 10);
  SupervisorOptions options;
  options.journal.checkpoint_every = 1;
  options.journal.budget_ms = 25;
  Result<SupervisorReport> report = supervise(tasks, options);
  ASSERT_TRUE(report.ok());
  // 10 ms per task, checked per block: 10, 20, 30 >= 25 → three completed.
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->completed, 3u);
  EXPECT_EQ(report->not_admitted, 7u);
  EXPECT_EQ(report->virtual_ms_total, 30u);
}

TEST(Supervisor, TripAfterCheckpointMarksRestNotAdmitted) {
  ScratchJournal scratch("trip");
  const CampaignTasks tasks = make_campaign(9);
  SupervisorOptions options;
  options.journal.checkpoint_every = 2;
  options.checkpoint_path = scratch.path;
  options.trip_after_tasks = 3;
  Result<SupervisorReport> report = supervise(tasks, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->tripped);
  EXPECT_EQ(report->executed, 4u);  // two full blocks before the trip fired
  EXPECT_EQ(report->not_admitted, 5u);
  // The journal holds exactly the executed entries.
  Result<Journal> journal = Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  EXPECT_EQ(journal->entries.size(), 4u);
  EXPECT_EQ(journal->campaign, "synthetic");
}

TEST(Supervisor, ResumeSkipsJournaledWorkAndMatchesStraightRun) {
  ScratchJournal scratch("resume");
  const CampaignTasks tasks = make_campaign(11, 2, {7});
  SupervisorOptions base;
  base.journal.checkpoint_every = 3;
  base.journal.quarantine_after = 2;

  SupervisorOptions straight = base;
  Result<SupervisorReport> uninterrupted = supervise(tasks, straight);
  ASSERT_TRUE(uninterrupted.ok());

  SupervisorOptions interrupted = base;
  interrupted.checkpoint_path = scratch.path;
  interrupted.trip_after_tasks = 4;
  Result<SupervisorReport> tripped = supervise(tasks, interrupted);
  ASSERT_TRUE(tripped.ok());
  ASSERT_TRUE(tripped->tripped);

  Result<Journal> journal = Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  SupervisorOptions resumed = base;
  resumed.checkpoint_path = scratch.path;
  resumed.resume = &journal.value();
  resumed.jobs = 8;  // a different worker count must not change anything
  Result<SupervisorReport> finished = supervise(tasks, resumed);
  ASSERT_TRUE(finished.ok()) << finished.error().message;

  EXPECT_FALSE(finished->tripped);
  EXPECT_GT(finished->resumed, 0u);
  EXPECT_EQ(fold_fingerprint(*finished), fold_fingerprint(*uninterrupted));

  // The appended journal now covers the whole campaign: a second resume
  // replays everything and still matches.
  Result<Journal> full = Journal::parse(scratch.read());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->entries.size(), tasks.ids.size());
  SupervisorOptions replay = base;
  replay.resume = &full.value();
  Result<SupervisorReport> replayed = supervise(tasks, replay);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->resumed, tasks.ids.size());
  EXPECT_EQ(fold_fingerprint(*replayed), fold_fingerprint(*uninterrupted));
}

TEST(Supervisor, ResumeMismatchIsRejected) {
  ScratchJournal scratch("mismatch");
  const CampaignTasks tasks = make_campaign(5);
  SupervisorOptions options;
  options.checkpoint_path = scratch.path;
  ASSERT_TRUE(supervise(tasks, options).ok());
  Result<Journal> journal = Journal::parse(scratch.read());
  ASSERT_TRUE(journal.ok());

  SupervisorOptions resumed;
  resumed.resume = &journal.value();

  CampaignTasks other_campaign = make_campaign(5);
  other_campaign.campaign = "different";
  EXPECT_EQ(supervise(other_campaign, resumed).error().code, "resilience.resume-mismatch");

  CampaignTasks other_config = make_campaign(5);
  other_config.config_json = "{\"n\":99}";
  EXPECT_EQ(supervise(other_config, resumed).error().code, "resilience.resume-mismatch");

  EXPECT_EQ(supervise(make_campaign(6), resumed).error().code, "resilience.resume-mismatch");

  SupervisorOptions other_knobs;
  other_knobs.resume = &journal.value();
  other_knobs.journal.task_deadline_ms = 123;
  EXPECT_EQ(supervise(tasks, other_knobs).error().code, "resilience.resume-mismatch");
}

TEST(Supervisor, ExportsCountersThroughObs) {
  obs::Registry registry;
  const CampaignTasks tasks = make_campaign(8, 1, {3});
  SupervisorOptions options;
  options.journal.quarantine_after = 2;
  options.metrics = &registry;
  ASSERT_TRUE(supervise(tasks, options).ok());
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("resilience.tasks_total"), std::string::npos);
  EXPECT_NE(json.find("resilience.tasks_completed"), std::string::npos);
  EXPECT_NE(json.find("resilience.tasks_quarantined"), std::string::npos);
  EXPECT_NE(json.find("resilience.attempts"), std::string::npos);
}

TEST(Supervisor, ChargeAccumulatesAcrossAttemptsButDeadlineIsPerAttempt) {
  TaskContext context(10);
  context.charge(8);
  context.begin_attempt();
  context.charge(8);  // would exceed 10 if attempts accumulated
  EXPECT_EQ(context.attempt_ms(), 8u);
  EXPECT_EQ(context.total_ms(), 16u);
  EXPECT_THROW(context.charge(5), DeadlineExceeded);
}

// ------------------------------------------------------------ slot protocol

/// The slot of a synthetic slot campaign: the index of the task that filled
/// it, journaled as {"task":i}.
struct Slot {
  std::size_t task = 0;
};

template <class V>
void fields(V& v, Slot& slot) {
  v("task", slot.task);
}

/// A journal of the synthetic campaign of `n` tasks, tripped after its
/// first block of two, written to `scratch`.
Journal tripped_slot_journal(const ScratchJournal& scratch, std::size_t n) {
  SupervisorOptions options;
  options.journal.checkpoint_every = 2;
  options.checkpoint_path = scratch.path;
  options.trip_after_tasks = 2;
  std::vector<Slot> slots(n);
  const auto run = [](std::size_t index, Slot& slot, TaskContext&) { slot.task = index; };
  Result<SupervisorReport> tripped =
      supervise_slots(make_campaign(n), std::span(slots), options, run);
  EXPECT_TRUE(tripped.ok() && tripped->tripped);
  Result<Journal> journal = Journal::parse(scratch.read());
  EXPECT_TRUE(journal.ok());
  return journal.ok() ? std::move(journal.value()) : Journal{};
}

TEST(SlotProtocol, ResumedRecordsFillTheirSlotsAndOnlyAJournalEncodes) {
  ScratchJournal scratch("slots");
  Journal journal = tripped_slot_journal(scratch, 6);
  ASSERT_EQ(journal.entries.size(), 2u);
  EXPECT_EQ(journal.entries[1].record, "{\"task\":1}");

  SupervisorOptions resumed;
  resumed.journal.checkpoint_every = 2;
  resumed.checkpoint_path = scratch.path;
  resumed.resume = &journal;
  std::vector<Slot> slots(6, Slot{99});
  std::vector<std::size_t> ran;  // one worker: tasks run in order on this thread
  Result<SupervisorReport> finished = supervise_slots(
      make_campaign(6), std::span(slots), resumed,
      [&ran](std::size_t index, Slot& slot, TaskContext&) {
        ran.push_back(index);
        slot.task = index;
      });
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_EQ(ran, (std::vector<std::size_t>{2, 3, 4, 5}));
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i].task, i);

  // Without a journal, no record is encoded.
  Result<SupervisorReport> plain = supervise_slots(
      make_campaign(3), std::span(slots).first(3), SupervisorOptions{},
      [](std::size_t index, Slot& slot, TaskContext&) { slot.task = index; });
  ASSERT_TRUE(plain.ok());
  for (const TaskOutcome& outcome : plain->tasks) EXPECT_EQ(outcome.record, "");
}

TEST(SlotProtocol, AnUnusableRecordFailsUnderTheCampaignsCodeBeforeAppending) {
  ScratchJournal scratch("slots_unusable");
  Journal journal = tripped_slot_journal(scratch, 4);
  const std::string written = scratch.read();
  SupervisorOptions resumed;
  resumed.journal.checkpoint_every = 2;
  resumed.checkpoint_path = scratch.path;
  resumed.resume = &journal;
  std::vector<Slot> slots(4);
  bool ran = false;
  const auto never = [&ran](std::size_t, Slot&, TaskContext&) { ran = true; };

  // The campaign's own check refuses a record its decode accepts...
  const auto check = [](const Slot& slot) {
    return std::string(slot.task == 1 ? "task 1 is withdrawn" : "");
  };
  Result<SupervisorReport> refused = supervise_slots(make_campaign(4), std::span(slots), resumed,
                                                     never, "synthetic.bad-record", check);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "synthetic.bad-record");
  EXPECT_EQ(refused.error().message, "task record for 'task-1': task 1 is withdrawn");

  // ...and an undecodable record fails under the same code, naming it.
  journal.entries[0].record = "{\"task\":-1}";
  Result<SupervisorReport> undecodable = supervise_slots(make_campaign(4), std::span(slots),
                                                         resumed, never, "synthetic.bad-record");
  ASSERT_FALSE(undecodable.ok());
  EXPECT_EQ(undecodable.error().code, "synthetic.bad-record");
  EXPECT_NE(undecodable.error().message.find("task-0"), std::string::npos)
      << undecodable.error().message;

  EXPECT_FALSE(ran);
  EXPECT_EQ(scratch.read(), written);  // nothing was appended
}

}  // namespace
}  // namespace wsx::resilience
