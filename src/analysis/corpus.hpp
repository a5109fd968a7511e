// corpus.hpp — the corpus-parallel lint driver and the failure-prediction
// join. One task per bindable service of the study's corpus deploys the
// service on its server framework and lints the published WSDL, across a
// thread pool, and — when asked — the per-rule hits are joined against
// interop::study outcomes to score each rule's predictive power (the
// paper's description-step-flags-predict-downstream-errors claim, §IV.A).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/registry.hpp"
#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx::analysis {

struct CorpusOptions {
  catalog::JavaCatalogSpec java_spec;      ///< defaults: the paper's population
  catalog::DotNetCatalogSpec dotnet_spec;  ///< defaults: the paper's population
  frameworks::ServiceShape shape = frameworks::ServiceShape::kSimpleEcho;
  /// Worker threads of the lint tasks and of the join's study; 0 = hardware
  /// concurrency.
  std::size_t jobs = 0;
  RuleConfig rules;  ///< rule selection/severity tuning

  /// Runs the interop study over the same corpus and computes per-rule
  /// precision/recall against downstream generation/compilation errors.
  bool join_study = false;

  /// Observability sinks, both optional (null = off). Spans: run → pass
  /// (lint/join/tally); metrics use the "lint." prefix, including one
  /// "lint.rule.<ID>" hit counter per firing rule.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// A finding's fields under the compact keys of a journaled lint record
/// (common/codec.hpp).
template <class V>
void fields(V& v, Finding& finding) {
  v("rule", finding.rule_id);
  v("sev", finding.severity);
  v("msg", finding.message);
  v("subj", finding.subject);
  v("uri", finding.location.uri);
  v("line", finding.location.line);
  v("col", finding.location.column);
  v("fix", finding.fixit);
}

/// Lint outcome of one deployed service. A task whose deploy() fails
/// leaves its analysis empty: one that names no server is a deploy refusal.
struct ServiceAnalysis {
  std::string server;     ///< server framework name
  std::string service;    ///< e.g. "EchoSimpleDateFormat"
  std::string type_name;  ///< native type behind the service
  std::string uri;        ///< "server/service.wsdl", stamped into findings
  std::vector<Finding> findings;
  bool zero_operations = false;  ///< the study's "unusable" classification
  /// With join_study: at least one client hit a generation or compilation
  /// error against this service.
  bool downstream_error = false;

  bool flagged_by(std::string_view rule_id) const;
};

/// A lint-corpus task's journal record: the analysis without the join's
/// downstream_error, which the join recomputes.
template <class V>
void fields(V& v, ServiceAnalysis& analysis) {
  v("server", analysis.server);
  v("service", analysis.service);
  v("type", analysis.type_name);
  v("uri", analysis.uri);
  v("zero", analysis.zero_operations);
  v("findings", analysis.findings);
}

/// Predictive power of one rule against the joined study outcomes.
struct RuleStats {
  std::string rule_id;
  std::size_t findings = 0;          ///< total findings emitted
  std::size_t services_flagged = 0;  ///< services with >= 1 finding
  // Populated only with CorpusOptions::join_study:
  std::size_t true_positives = 0;   ///< flagged and downstream error
  std::size_t false_positives = 0;  ///< flagged, no downstream error
  std::size_t false_negatives = 0;  ///< downstream error, not flagged

  double precision() const;  ///< TP / (TP + FP); 0 when nothing flagged
  double recall() const;     ///< TP / (TP + FN); 0 when no errors happened
};

struct CorpusReport {
  std::vector<ServiceAnalysis> services;  ///< deterministic corpus order
  /// Per-rule hit counts in registry registration order (rules that never
  /// fired included, so reports are shape-stable).
  std::vector<RuleStats> rules;
  std::size_t servers = 0;
  std::size_t deploy_refusals = 0;  ///< services a server would not deploy
  bool joined = false;              ///< RuleStats carry TP/FP/FN

  /// Every finding across the corpus, in corpus order.
  std::vector<Finding> all_findings() const;
  std::size_t services_with_findings() const;
  /// One line, e.g. "1894 services on 3 servers: 120 with findings".
  std::string summary() const;
};

/// Deploys, lints (in parallel), and optionally joins against the study:
/// analyze_corpus_supervised (analysis/supervised_corpus.hpp) with no
/// journal, which must cover every service. Output is deterministic for a
/// given options value regardless of `jobs`.
CorpusReport analyze_corpus(const CorpusOptions& options = {});

/// Lints one deployed service of `server` (pure; safe to call from worker
/// threads). The published text is linted, not the in-memory model, so
/// findings carry the line and column consumers would see.
ServiceAnalysis lint_service(std::string_view server, const frameworks::DeployedService& service,
                             const RuleConfig& rules);

/// The join + tally passes over `report.services` (which must already be
/// in corpus order).
void finalize_corpus_report(CorpusReport& report, const CorpusOptions& options,
                            obs::SpanId parent_span = obs::kNoSpan);

/// Human-readable per-rule table (hits, and precision/recall when joined).
std::string format_report(const CorpusReport& report);

}  // namespace wsx::analysis
