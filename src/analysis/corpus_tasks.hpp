// corpus_tasks.hpp — the task engine of lint-corpus and predict-corpus.
//
// One task per deployed description writes its result into its own slot,
// allocated up front. A record is encoded only when a journal is written;
// a resumed slot is decoded from its journal record before anything runs,
// so an unusable journal fails before it is appended to. The completed
// slots come back in corpus order, at any worker count and across resumes.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/corpus.hpp"
#include "common/codec.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis {

/// What distinguishes one corpus campaign from the other.
struct CorpusCampaign {
  std::string name;         ///< journal campaign name
  std::string config_json;  ///< its config fingerprint
  std::string_view bad_record;  ///< error code of an undecodable resumed record
  std::size_t jobs = 0;         ///< worker threads; 0 = hardware
  obs::Registry* metrics = nullptr;
};

/// Runs `run(job) -> Slot` once per job under the supervisor. Each task
/// charges one virtual ms. `completed` receives the completed slots in
/// corpus order; `report` the supervisor's.
template <class Slot, class Supervision, class Run>
Status run_corpus_tasks(const CorpusCampaign& campaign, const std::vector<LintJob>& jobs,
                        const Supervision& supervision, Run run,
                        resilience::SupervisorReport& report, std::vector<Slot>& completed) {
  resilience::CampaignTasks tasks;
  tasks.campaign = campaign.name;
  tasks.config_json = campaign.config_json;
  tasks.ids.reserve(jobs.size());
  for (const LintJob& job : jobs) tasks.ids.push_back(job.server + "|" + job.service);

  std::vector<Slot> slots(jobs.size());
  for (const resilience::JournalEntry* entry :
       resilience::resumed_records(tasks, supervision.resume)) {
    const Status decoded =
        resilience::decode_record(*entry, slots[entry->task], campaign.bad_record);
    if (!decoded.ok()) return decoded;
  }
  const bool journaling = !supervision.checkpoint_path.empty();
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    slots[index] = run(jobs[index]);
    context.charge(1);  // cost model: one virtual ms per description
    return journaling ? codec::encode(slots[index]) : std::string{};
  };

  Result<resilience::SupervisorReport> supervised = resilience::supervise(
      tasks, resilience::supervisor_options(supervision, campaign.jobs, campaign.metrics));
  if (!supervised.ok()) return supervised.error();
  report = std::move(supervised.value());

  completed.clear();
  completed.reserve(report.completed);
  for (const resilience::TaskOutcome& outcome : report.tasks) {
    if (outcome.state == resilience::TaskState::kCompleted) {
      completed.push_back(std::move(slots[outcome.task]));
    }
  }
  return Status::success();
}

}  // namespace wsx::analysis
