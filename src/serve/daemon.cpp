#include "serve/daemon.hpp"

#include <utility>

#include "analysis/registry.hpp"
#include "common/hash.hpp"
#include "resilience/supervisor.hpp"
#include "wsdl/parser.hpp"

namespace wsx::serve {

Daemon::Daemon(Oracle oracle, DaemonSettings settings)
    : oracle_(std::move(oracle)),
      settings_(settings),
      admission_(settings.admission),
      breaker_(settings.breaker) {
  if (settings_.quarantine_after == 0) settings_.quarantine_after = 1;
}

Response Daemon::handle(const Request& request, std::uint64_t now_ms) {
  if (request.kind == QueryKind::kStats) {
    // Control plane: answered even under full overload — shedding the
    // observability path would blind operators exactly when they need it.
    Response response;
    response.status = StatusCode::kOk;
    response.body = stats_body(now_ms);
    return response;
  }

  const Admission admission = admission_.admit(request.kind, now_ms);
  if (admission.status != StatusCode::kOk) {
    Response response;
    response.status = admission.status;
    response.reason = admission.status == StatusCode::kShedded
                          ? "queue full: load shed"
                          : "cannot meet class deadline";
    obs::add(settings_.metrics, admission.status == StatusCode::kShedded
                                    ? "serve.responses.shedded"
                                    : "serve.responses.deadline_exceeded");
    return response;
  }
  Response response = execute(request, admission, now_ms);
  obs::add(settings_.metrics, "serve.responses.ok");
  return response;
}

Response Daemon::execute(const Request& request, const Admission& admission,
                         std::uint64_t now_ms) {
  if (request.kind == QueryKind::kLint) return lint(request, admission, now_ms);

  Result<std::string> body = [&]() -> Result<std::string> {
    switch (request.kind) {
      case QueryKind::kVerdict:
        return oracle_.verdict(request.client, request.service);
      case QueryKind::kExplain:
        return oracle_.explain(request.client, request.service);
      case QueryKind::kSubstitute:
        return oracle_.substitute(request.client, request.service, request.top);
      default:
        return Error{"serve.bad-request", "unhandled query kind"};
    }
  }();

  Response response;
  response.latency_ms = admission.latency_ms;
  if (!body.ok()) {
    response.status = StatusCode::kNotFound;
    response.reason = body.error().message;
    return response;
  }
  response.status = StatusCode::kOk;
  response.body = std::move(body.value());
  return response;
}

Response Daemon::lint(const Request& request, const Admission& admission,
                      std::uint64_t now_ms) {
  Response response;
  response.latency_ms = admission.latency_ms;

  // Quarantine keys on the body's content, not on the connection.
  const std::uint64_t hash = fnv1a(request.body, kFnvShortBasis);
  const ClassSpec& cls = admission_.spec(QueryKind::kLint);

  // One lock across the whole execution: quarantine lookups, the breaker
  // decision, the parse attempts and the outcome recording are one atomic
  // step, so a half-open breaker admits exactly one probe.
  std::lock_guard<std::mutex> lock(lint_mutex_);

  if (quarantined_.count(hash) != 0) {
    ++lint_totals_.quarantined_hits;
    response.status = StatusCode::kQuarantined;
    response.reason = "upload quarantined after repeated parse failures";
    return response;
  }

  if (!breaker_.allows(now_ms)) {
    response.status = StatusCode::kCircuitOpen;
    response.reason = "lint breaker open: untrusted-parse path cooling off";
    return response;
  }

  // Retry-then-quarantine, on resilience machinery: each parse attempt
  // charges the class cost against the class deadline; a body that burns
  // all `quarantine_after` attempts (across requests) is parked for good.
  std::size_t& failures = body_failures_[hash];
  resilience::TaskContext context(cls.deadline_ms);
  std::string parse_error;
  bool parsed = false;
  Result<wsdl::Definitions> definitions = Error{"serve.lint", "not attempted"};
  try {
    while (failures < settings_.quarantine_after) {
      context.begin_attempt();
      context.charge(cls.cost_ms);
      ++lint_totals_.attempts;
      definitions = wsdl::parse(request.body);
      if (definitions.ok()) {
        parsed = true;
        break;
      }
      ++failures;
      ++lint_totals_.parse_failures;
      parse_error = definitions.error().message;
    }
  } catch (const resilience::DeadlineExceeded&) {
    breaker_.record_failure(now_ms);
    lint_totals_.breaker_trips = breaker_.trips();
    response.status = StatusCode::kDeadlineExceeded;
    response.reason = "lint retries exceeded the class deadline";
    response.latency_ms = admission.wait_ms + context.total_ms();
    return response;
  }
  response.latency_ms =
      admission.wait_ms + std::max<std::uint64_t>(cls.cost_ms, context.total_ms());

  if (!parsed) {
    breaker_.record_failure(now_ms);
    lint_totals_.breaker_trips = breaker_.trips();
    if (failures >= settings_.quarantine_after) {
      quarantined_.insert(hash);
      response.status = StatusCode::kQuarantined;
      response.reason = "upload quarantined: " + parse_error;
    } else {
      response.status = StatusCode::kBadRequest;
      response.reason = "upload does not parse: " + parse_error;
    }
    return response;
  }

  breaker_.record_success(now_ms);
  body_failures_.erase(hash);
  analysis::AnalysisInput input;
  input.definitions = &definitions.value();
  input.uri = "upload.wsdl";
  const analysis::AnalysisResult analyzed = analysis::analyze(input);
  response.status = StatusCode::kOk;
  response.body = json::ObjectWriter{}
                      .field("findings", analyzed.findings.size())
                      .field("errors", analyzed.count(Severity::kError) +
                                           analyzed.count(Severity::kCrash))
                      .field("warnings", analyzed.count(Severity::kWarning))
                      .field("summary", analysis::summarize(analyzed.findings))
                      .str();
  return response;
}

LintSnapshot Daemon::lint_snapshot() const {
  std::lock_guard<std::mutex> lock(lint_mutex_);
  LintSnapshot snapshot = lint_totals_;
  snapshot.quarantined_bodies = quarantined_.size();
  snapshot.breaker_trips = breaker_.trips();
  return snapshot;
}

std::string Daemon::stats_body(std::uint64_t now_ms) {
  const AdmissionSnapshot admission = admission_.snapshot();
  LintSnapshot lint;
  chaos::CircuitBreaker::State breaker_state;
  {
    std::lock_guard<std::mutex> lock(lint_mutex_);
    lint = lint_totals_;
    lint.quarantined_bodies = quarantined_.size();
    lint.breaker_trips = breaker_.trips();
    breaker_state = breaker_.state(now_ms);
    if (settings_.metrics != nullptr) {
      breaker_.export_state(*settings_.metrics, "serve.lint.breaker", now_ms);
    }
  }
  if (settings_.metrics != nullptr) {
    admission_.export_metrics(*settings_.metrics);
    settings_.metrics->gauge("serve.lint.quarantined_bodies")
        .set(static_cast<std::int64_t>(lint.quarantined_bodies));
    obs::Counter& attempts = settings_.metrics->counter("serve.lint.attempts");
    if (lint.attempts > attempts.value()) attempts.add(lint.attempts - attempts.value());
    obs::Counter& failures = settings_.metrics->counter("serve.lint.parse_failures");
    if (lint.parse_failures > failures.value()) {
      failures.add(lint.parse_failures - failures.value());
    }
  }

  return json::ObjectWriter{}
      .field("services", oracle_.services())
      .field("clients", oracle_.clients().size())
      .field("cache_fingerprint", hex16(oracle_.fingerprint()))
      .raw_field("admission", json::ObjectWriter{}
                                  .field("admitted", static_cast<std::size_t>(admission.admitted))
                                  .field("shed", static_cast<std::size_t>(admission.shed))
                                  .field("deadline_rejected",
                                         static_cast<std::size_t>(admission.deadline_rejected))
                                  .field("queue_high_water", admission.queue_high_water)
                                  .str())
      .raw_field("lint",
                 json::ObjectWriter{}
                     .field("attempts", static_cast<std::size_t>(lint.attempts))
                     .field("parse_failures", static_cast<std::size_t>(lint.parse_failures))
                     .field("quarantined_bodies", lint.quarantined_bodies)
                     .field("quarantined_hits",
                            static_cast<std::size_t>(lint.quarantined_hits))
                     .field("breaker_state", breaker_state == chaos::CircuitBreaker::State::kClosed
                                                 ? "closed"
                                                 : breaker_state ==
                                                           chaos::CircuitBreaker::State::kOpen
                                                       ? "open"
                                                       : "half-open")
                     .field("breaker_trips", lint.breaker_trips)
                     .str())
      .str();
}

}  // namespace wsx::serve
