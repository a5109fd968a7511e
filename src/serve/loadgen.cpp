#include "serve/loadgen.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/supervised_predict.hpp"
#include "common/json.hpp"
#include "frameworks/registry.hpp"

namespace wsx::serve {

namespace predict = analysis::predict;

namespace {

/// Deterministic 64-bit LCG (the arrival schedule and query mix).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2654435761ull + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }

 private:
  std::uint64_t state_;
};

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, std::size_t pct) {
  if (sorted.empty()) return 0;
  return sorted[(sorted.size() - 1) * pct / 100];
}

/// One traffic phase against one daemon. Arrivals land `per_ms` per virtual
/// millisecond starting at `start_ms`; the mix is ~80% verdict, 10% explain,
/// 8% substitute, 2% lint (a quarter of lints poisoned).
PhaseStats run_phase(Daemon& daemon, Lcg& rng, std::string name, std::size_t queries,
                     std::size_t per_ms, std::uint64_t start_ms,
                     const std::vector<std::string>& valid_bodies,
                     const std::vector<std::string>& poison_bodies,
                     std::uint64_t& end_ms) {
  PhaseStats stats;
  stats.name = std::move(name);
  const std::vector<std::string>& clients = daemon.oracle().clients();
  const auto& records = daemon.oracle().records();
  std::vector<std::uint64_t> latencies;
  std::uint64_t last_completion = start_ms;

  for (std::size_t i = 0; i < queries; ++i) {
    const std::uint64_t now = start_ms + (per_ms == 0 ? i : i / per_ms);
    Request request;
    const std::uint64_t mix = rng.next() % 100;
    if (mix < 80) {
      request.kind = QueryKind::kVerdict;
    } else if (mix < 90) {
      request.kind = QueryKind::kExplain;
    } else if (mix < 98) {
      request.kind = QueryKind::kSubstitute;
    } else {
      request.kind = QueryKind::kLint;
      request.body = rng.next() % 4 == 0
                         ? poison_bodies[rng.next() % poison_bodies.size()]
                         : valid_bodies[rng.next() % valid_bodies.size()];
    }
    if (request.kind != QueryKind::kLint) {
      request.client = clients[rng.next() % clients.size()];
      const auto& record = records[rng.next() % records.size()];
      request.service = record.server + "/" + record.service;
    }

    const Response response = daemon.handle(request, now);
    ++stats.sent;
    switch (response.status) {
      case StatusCode::kOk:
        ++stats.ok;
        latencies.push_back(response.latency_ms);
        last_completion = std::max(last_completion, now + response.latency_ms);
        break;
      case StatusCode::kShedded:
        ++stats.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++stats.deadline_rejected;
        break;
      case StatusCode::kQuarantined:
        ++stats.quarantined;
        break;
      case StatusCode::kCircuitOpen:
        ++stats.circuit_open;
        break;
      case StatusCode::kBadRequest:
        ++stats.bad_request;
        break;
      case StatusCode::kNotFound:
        ++stats.not_found;
        break;
    }
  }

  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = percentile(latencies, 50);
  stats.p99_ms = percentile(latencies, 99);
  stats.max_ms = latencies.empty() ? 0 : latencies.back();
  stats.duration_ms = last_completion > start_ms ? last_completion - start_ms : 1;
  end_ms = last_completion;
  return stats;
}

std::uint64_t restart_cost(const resilience::SupervisorReport& precompute) {
  return static_cast<std::uint64_t>(precompute.executed) * kRecomputeCostMs +
         static_cast<std::uint64_t>(precompute.resumed) * kReplayCostMs;
}

void phase_fields(json::ObjectWriter& doc, const PhaseStats& phase) {
  const std::string p = phase.name + "_";
  doc.field(p + "sent", phase.sent)
      .field(p + "ok", phase.ok)
      .field(p + "shed", phase.shed)
      .field(p + "deadline_rejected", phase.deadline_rejected)
      .field(p + "quarantined", phase.quarantined)
      .field(p + "circuit_open", phase.circuit_open)
      .field(p + "p50_ms", static_cast<std::size_t>(phase.p50_ms))
      .field(p + "p99_ms", static_cast<std::size_t>(phase.p99_ms))
      .field(p + "max_ms", static_cast<std::size_t>(phase.max_ms))
      .field(p + "duration_ms", static_cast<std::size_t>(phase.duration_ms))
      .field(p + "qps", phase.duration_ms == 0
                            ? 0.0
                            : static_cast<double>(phase.sent) * 1000.0 /
                                  static_cast<double>(phase.duration_ms));
}

}  // namespace

Result<LoadgenReport> run_loadgen(const LoadgenOptions& options) {
  LoadgenReport report;

  predict::PredictOptions predict_options = options.predict;
  predict_options.join_study = false;

  // Harvest real served WSDL bytes for the valid lint uploads: the plan's
  // first deployed services, whose bodies are guaranteed to parse.
  std::vector<std::string> valid_bodies;
  {
    const frameworks::Corpus corpus(predict_options.java_spec, predict_options.dotnet_spec,
                                    predict_options.shape);
    for (std::size_t i = 0; i < corpus.plan.tasks.size() && valid_bodies.size() < 3; ++i) {
      Result<frameworks::DeployedService> deployed = corpus.deploy(i);
      if (deployed.ok()) valid_bodies.push_back(std::move(deployed->wsdl_text));
    }
  }
  if (valid_bodies.empty()) return Error{"serve.loadgen", "empty corpus at this scale"};
  // Three distinct poison uploads: enough failing requests to both fill a
  // quarantine slot and trip the breaker during overload.
  const std::vector<std::string> poison_bodies = {
      "<definitions xmlns=\"", "<defin", "not xml at all \x01"};

  OracleOptions cold_options;
  cold_options.predict = predict_options;
  cold_options.supervision.journal = options.journal;
  cold_options.supervision.checkpoint_path = options.cache_path;
  Result<Oracle> cold = Oracle::load(cold_options);
  if (!cold.ok()) return cold.error();
  report.services = cold->services();
  report.clients = cold->clients().size();
  report.cold_precompute_ms = restart_cost(cold->precompute());
  const std::uint64_t cold_fingerprint = cold->fingerprint();
  const std::size_t corpus_tasks = cold->precompute().tasks.size();

  // Keep the cold outcomes around: when no cache file is used, the warm
  // restart resumes from an in-memory journal holding exactly the entries
  // the file would have. Without a journal the precompute encodes no
  // records, so each completed entry's record is encoded here from the
  // oracle's records, which hold the completed tasks in task order.
  resilience::Journal journal;
  journal.campaign = "predict-corpus";
  journal.config_json = predict::predict_config_json(predict_options);
  journal.tasks = corpus_tasks;
  journal.options = options.journal;
  if (options.cache_path.empty()) {
    std::size_t completed = 0;
    for (const resilience::TaskOutcome& task : cold->precompute().tasks) {
      if (task.state == resilience::TaskState::kNotAdmitted) continue;
      resilience::JournalEntry entry;
      entry.task = task.task;
      entry.id = task.id;
      entry.state = task.state == resilience::TaskState::kCompleted
                        ? resilience::JournalState::kCompleted
                        : resilience::JournalState::kQuarantined;
      entry.attempts = task.attempts;
      entry.timed_out = task.timed_out;
      entry.virtual_ms = task.virtual_ms;
      if (task.state == resilience::TaskState::kCompleted) {
        entry.record = predict::record_json(cold->records()[completed++]);
      }
      entry.reason = task.reason;
      journal.entries.push_back(std::move(entry));
    }
  }

  DaemonSettings settings;
  settings.admission = options.admission;
  settings.breaker = options.breaker;
  settings.quarantine_after = options.journal.quarantine_after;
  Daemon daemon(std::move(cold.value()), settings);

  Lcg rng(options.seed);
  std::uint64_t now = 0;
  report.phases.push_back(run_phase(daemon, rng, "open", options.queries_per_phase,
                                    options.open_per_ms, 0, valid_bodies, poison_bodies,
                                    now));
  std::uint64_t overload_end = now;
  report.phases.push_back(run_phase(daemon, rng, "overload", options.queries_per_phase,
                                    options.overload_per_ms, now + 1, valid_bodies,
                                    poison_bodies, overload_end));

  // Simulated crash: the daemon dies with the overload phase; a new one
  // warm-restarts from the verdict-cache journal.
  if (!options.cache_path.empty()) {
    std::ifstream file(options.cache_path);
    if (!file) {
      return Error{"serve.loadgen", "cannot read cache journal " + options.cache_path};
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    resilience::JournalParseOptions tolerant;
    tolerant.tolerate_truncated_tail = true;
    Result<resilience::Journal> parsed = resilience::Journal::parse(buffer.str(), tolerant);
    if (!parsed.ok()) return parsed.error();
    journal = std::move(parsed.value());
  }
  OracleOptions warm_options;
  warm_options.predict = predict_options;
  warm_options.supervision.journal = options.journal;
  warm_options.supervision.resume = &journal;
  Result<Oracle> warm = Oracle::load(warm_options);
  if (!warm.ok()) return warm.error();
  report.warm_resumed = warm->precompute().resumed;
  report.warm_executed = warm->precompute().executed;
  report.recover_ms = restart_cost(warm->precompute());
  report.fingerprint_match = warm->fingerprint() == cold_fingerprint;

  Daemon restarted(std::move(warm.value()), settings);
  std::uint64_t recovery_end = 0;
  report.phases.push_back(run_phase(restarted, rng, "recovery", options.queries_per_phase,
                                    options.open_per_ms, overload_end + report.recover_ms,
                                    valid_bodies, poison_bodies, recovery_end));
  return report;
}

std::string loadgen_json(const LoadgenReport& report, std::size_t scale_percent,
                         std::uint64_t seed) {
  json::ObjectWriter doc;
  doc.field("benchmark", "serve")
      .field("scale_percent", scale_percent)
      .field("seed", static_cast<std::size_t>(seed))
      .field("services", report.services)
      .field("clients", report.clients);
  for (const PhaseStats& phase : report.phases) phase_fields(doc, phase);
  const PhaseStats* overload = nullptr;
  for (const PhaseStats& phase : report.phases) {
    if (phase.name == "overload") overload = &phase;
  }
  doc.field("shed_rate_percent",
            overload == nullptr || overload->sent == 0
                ? 0.0
                : static_cast<double>(overload->shed) * 100.0 /
                      static_cast<double>(overload->sent))
      .field("cold_precompute_ms", static_cast<std::size_t>(report.cold_precompute_ms))
      .field("recover_ms", static_cast<std::size_t>(report.recover_ms))
      .field("warm_resumed", report.warm_resumed)
      .field("warm_executed", report.warm_executed)
      .field("fingerprint_match", static_cast<std::size_t>(report.fingerprint_match ? 1 : 0));
  return doc.str();
}

std::vector<std::string> check_invariants(const LoadgenReport& report,
                                          const LoadgenOptions& options) {
  std::vector<std::string> violations;
  if (report.phases.size() != 3) {
    violations.push_back("expected exactly three phases");
    return violations;
  }
  const PhaseStats& open = report.phases[0];
  const PhaseStats& overload = report.phases[1];
  const PhaseStats& recovery = report.phases[2];

  if (overload.shed == 0) {
    violations.push_back("overload phase shed nothing: admission control never engaged");
  }
  if (open.shed + open.deadline_rejected != 0) {
    violations.push_back("open phase shed or rejected traffic below capacity");
  }

  // Admitted p99 must honour the worst per-class deadline — the property
  // load shedding exists to protect. Classes without a deadline exempt the
  // check (deadline 0 = unbounded).
  std::uint64_t worst_deadline = 0;
  bool unbounded = false;
  for (const ClassSpec* cls : {&options.admission.verdict, &options.admission.explain,
                               &options.admission.substitute, &options.admission.lint}) {
    if (cls->deadline_ms == 0) {
      unbounded = true;
    } else {
      worst_deadline = std::max(worst_deadline, cls->deadline_ms);
    }
  }
  if (!unbounded) {
    for (const PhaseStats& phase : report.phases) {
      if (phase.p99_ms > worst_deadline) {
        violations.push_back(phase.name + " p99 of " + std::to_string(phase.p99_ms) +
                             "ms exceeds the worst class deadline of " +
                             std::to_string(worst_deadline) + "ms");
      }
    }
  }

  if (!report.fingerprint_match) {
    violations.push_back("warm-restart cache is not byte-identical to the cold cache");
  }
  if (report.recover_ms >= report.cold_precompute_ms && report.warm_resumed > 0) {
    violations.push_back("warm restart (" + std::to_string(report.recover_ms) +
                         "ms) no faster than a cold start (" +
                         std::to_string(report.cold_precompute_ms) + "ms)");
  }
  if (recovery.ok == 0) {
    violations.push_back("recovery phase answered nothing after the warm restart");
  }
  return violations;
}

}  // namespace wsx::serve
