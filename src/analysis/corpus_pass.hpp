// corpus_pass.hpp — the one engine of the two corpus passes, lint-corpus
// and predict-corpus, run under the resilience supervisor
// (src/resilience/supervisor.hpp).
#pragma once

#include <cstddef>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "frameworks/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::analysis {

/// The names of one corpus pass. Pass "lint" runs as campaign
/// "lint-corpus" (the run span and the journal's campaign) with the pass
/// span "pass:lint", which `folded` ("linted") annotates with the number
/// of folded services. Its timers are "lint.phase.lint_us",
/// "lint.step.deploy_us" and "lint.step.lint_us", its counters
/// "lint.services_total" and "lint.deploy_refusals".
struct CorpusPass {
  std::string_view name;
  std::string_view folded;
  /// The code a journaled record that does not decode fails with.
  std::string_view bad_record = "resilience.bad-record";
};

/// Runs `pass` over the corpus `options` names (java_spec, dotnet_spec,
/// shape, jobs, tracer, metrics) under `supervision`, journaling under the
/// fingerprint `config`. One task per bindable service of the corpus plan
/// deploys the service and stores `step(server, deployed)` in its slot; a
/// slot is journaled only when a checkpoint file is written. The completed
/// slots fold in corpus order, then `finalize(report, options, run_span)`
/// runs the join and scoring over exactly the folded services. Quarantined
/// or not-admitted services are absent from the report (the supervisor
/// section carries the coverage counters).
template <typename Supervised, typename Options, typename Step, typename Finalize>
Result<Supervised> supervise_corpus_pass(const CorpusPass& pass, const Options& options,
                                         std::string config,
                                         const resilience::Supervision& supervision, Step step,
                                         Finalize finalize) {
  Supervised out;
  auto& report = out.report;
  using Slot = typename decltype(report.services)::value_type;
  const std::string name(pass.name);

  obs::Span run_span(options.tracer, name + "-corpus");
  // The corpus the study deploys (§III.A), one task per bindable service.
  frameworks::Corpus corpus(options.java_spec, options.dotnet_spec, options.shape);
  report.servers = corpus.servers.size();

  obs::Span pass_span(options.tracer, "pass:" + name, run_span);
  obs::ScopedTimer pass_timer = obs::timer(options.metrics, name + ".phase." + name + "_us");
  // One slot per task, allocated up front. A task deploys its service and
  // runs the step on the served text into its slot, charging one virtual ms.
  const std::string deploy_us = name + ".step.deploy_us";
  const std::string step_us = name + ".step." + name + "_us";
  std::vector<Slot> slots(corpus.plan.tasks.size());
  const auto run = [&](std::size_t index, Slot& slot, resilience::TaskContext& context) {
    obs::ScopedTimer deploy_timer = obs::timer(options.metrics, deploy_us);
    const Result<frameworks::DeployedService> deployed = corpus.deploy(index);
    deploy_timer.stop();
    if (deployed.ok()) {
      obs::ScopedTimer step_timer = obs::timer(options.metrics, step_us);
      slot = step(corpus.round(index).server->name(), *deployed);
    } else {
      slot = Slot{};
    }
    context.charge(1);
  };
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{name + "-corpus", std::move(config),
                                std::move(corpus.plan.ids), {}},
      std::span(slots), resilience::SupervisorOptions{supervision, options.jobs, options.metrics},
      run, pass.bad_record);
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold the completed slots in corpus order. The services no round binds
  // and those whose task found deploy() refusing them are deploy refusals.
  std::size_t refused_in_tasks = 0;
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    if (outcome.state != resilience::TaskState::kCompleted) continue;
    Slot& service = slots[outcome.task];
    if (service.server.empty()) {
      ++refused_in_tasks;
      continue;
    }
    report.services.push_back(std::move(service));
  }
  report.deploy_refusals = std::accumulate(corpus.plan.refused.begin(),
                                           corpus.plan.refused.end(), refused_in_tasks);
  obs::add(options.metrics, name + ".services_total",
           corpus.plan.tasks.size() - refused_in_tasks);
  obs::add(options.metrics, name + ".deploy_refusals", report.deploy_refusals);
  pass_span.annotate(pass.folded, report.services.size());
  pass_span.end();
  pass_timer.stop();

  finalize(report, options, run_span.id());
  return out;
}

}  // namespace wsx::analysis
