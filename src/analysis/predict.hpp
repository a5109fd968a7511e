// predict.hpp — the static compatibility predictor.
//
// Given a service's SharedDescription, predicts each client tool's
// testing-phase verdict (ok / warning-class / error-class, plus the
// responsible footnote mechanism) *without executing* the generation or
// compilation pipeline. The predictor walks the rows of Table II
// (frameworks/roster.hpp): the generation step applies each row's
// FeatureRules to the WsdlFeatures vector, and the compilation step maps
// each of the row's artifact defects, plus the member collisions and
// unknown bases every compiler rejects, to a small set of shape signals
// computed once per description — the one part that mirrors the artifact
// builder instead of reading the row. predict_corpus() applies the
// predictor to the whole generated corpus and — by default — joins the
// predictions against the dynamic study's ground truth to score
// precision/recall/F1 on the error class (docs/PREDICT.md has the
// methodology).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "common/result.hpp"
#include "frameworks/server.hpp"
#include "frameworks/shared_description.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx::analysis::predict {

/// Predicted classification of one testing-phase step.
enum class Outcome { kOk, kWarning, kError };

const char* to_string(Outcome outcome);
bool from_string(std::string_view text, Outcome& out);  ///< inverse of to_string

/// Shape facts the compilation step keys on, beyond WsdlFeatures. All are
/// computed over *named* complex types only — those are the types the
/// artifact builder turns into classes.
struct ShapeSignals {
  bool throwable_wrapper = false;   ///< *Exception/*Error type with a "message" element
  bool gregorian_element = false;   ///< element the Axis2 local_ defect trips on
  bool unresolved_base = false;     ///< extension base not defined in the description
  bool duplicate_members = false;   ///< colliding class members (case-sensitive)
  bool duplicate_members_folded = false;  ///< ...compared without case (VB.NET)
  bool double_wildcard = false;     ///< >= 2 xs:any wildcards in one type
  bool has_enum = false;            ///< enumeration simpleType declared
  bool has_named_types = false;     ///< at least one class will be generated
  bool deep_nesting = false;        ///< depth >= kDeepNestingDepth (JScript missing-body)
  bool very_deep_nesting = false;   ///< depth >= kPathologicalNestingDepth (jsc crash)
  bool anytype_unbounded = false;   ///< unbounded anyType element (JScript missing-body)
};

/// Computes the shape signals for a parsed description.
ShapeSignals collect_signals(const wsdl::Definitions& defs);

/// One predicted testing-phase step. Warning and error flags are
/// independent, exactly like interop::TestRecord's ground-truth flags —
/// most tools keep emitting warnings even once an error is certain.
struct StepPrediction {
  bool warning = false;
  bool error = false;
  /// Responsible mechanisms (footnote catalog ids), sorted and deduplicated.
  std::vector<std::string> mechanisms;

  Outcome outcome() const {
    return error ? Outcome::kError : warning ? Outcome::kWarning : Outcome::kOk;
  }
  friend bool operator==(const StepPrediction&, const StepPrediction&) = default;
};

/// Predicted verdict of one client tool against one description.
struct ClientPrediction {
  std::string client;      ///< exact framework name (join key)
  bool compiled = true;    ///< false: dynamic client, no compilation column
  bool artifacts = true;   ///< artifacts predicted to reach step (c)
  StepPrediction generation;
  StepPrediction compilation;

  bool any_error() const { return generation.error || compilation.error; }
  friend bool operator==(const ClientPrediction&, const ClientPrediction&) = default;
};

/// Full per-client prediction for one description.
struct ServicePrediction {
  std::string fingerprint;  ///< canonical shape fingerprint (hex)
  std::vector<ClientPrediction> clients;  ///< frameworks::make_clients() order

  friend bool operator==(const ServicePrediction&, const ServicePrediction&) = default;
};

/// Predicts every client's verdict for one description, in
/// frameworks::make_clients() order.
ServicePrediction predict_service(const frameworks::SharedDescription& description);

// --- Corpus pass and ground-truth join ----------------------------------

struct PredictOptions {
  catalog::JavaCatalogSpec java_spec;      ///< defaults: the paper's population
  catalog::DotNetCatalogSpec dotnet_spec;  ///< defaults: the paper's population
  frameworks::ServiceShape shape = frameworks::ServiceShape::kSimpleEcho;
  /// Worker threads of the predictor tasks and of the join's study; 0 =
  /// hardware concurrency.
  std::size_t jobs = 0;

  /// Runs the dynamic study over the same corpus and scores the predictions
  /// against its per-test outcomes (precision/recall/F1 on the error class).
  bool join_study = true;

  /// Observability sinks, both optional (null = off). Metrics use the
  /// "predict." prefix.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Prediction for one deployed service of the corpus. A task whose deploy()
/// fails leaves its record empty: one that names no server is a deploy
/// refusal.
struct ServicePredictionRecord {
  std::string server;
  std::string service;
  std::string type_name;
  std::string uri;  ///< "server/service.wsdl"
  std::vector<std::string> operations;  ///< sorted unique operation names
  ServicePrediction prediction;

  friend bool operator==(const ServicePredictionRecord&,
                         const ServicePredictionRecord&) = default;
};

// The record's JSON form (record_json, and the predict-corpus journal's
// task payload), declared once for common/codec.hpp.

template <class V>
void fields(V& v, StepPrediction& step) {
  v("warning", step.warning);
  v("error", step.error);
  v("mechanisms", step.mechanisms);
}

template <class V>
void fields(V& v, ClientPrediction& client) {
  v("client", client.client);
  v("compiled", client.compiled);
  v("artifacts", client.artifacts);
  v("generation", client.generation);
  v("compilation", client.compilation);
}

template <class V>
void fields(V& v, ServicePredictionRecord& record) {
  v("server", record.server);
  v("service", record.service);
  v("type", record.type_name);
  v("uri", record.uri);
  v("fingerprint", record.prediction.fingerprint);
  v("operations", record.operations);
  v("clients", record.prediction.clients);
}

/// Predictive power of the rules for one client (or "overall"), measured
/// against the dynamic study's error class.
struct ClientScore {
  std::string client;
  std::size_t tests = 0;
  std::size_t true_positives = 0;   ///< predicted error, observed error
  std::size_t false_positives = 0;  ///< predicted error, no observed error
  std::size_t false_negatives = 0;  ///< observed error, not predicted
  std::size_t true_negatives = 0;
  std::size_t exact_matches = 0;    ///< all four step flags predicted exactly

  double precision() const;  ///< TP / (TP + FP); 1 when nothing predicted
  double recall() const;     ///< TP / (TP + FN); 1 when nothing observed
  double f1() const;
};

struct PredictReport {
  std::vector<ServicePredictionRecord> services;  ///< deterministic corpus order
  std::vector<ClientScore> clients;  ///< with join_study, make_clients() order
  ClientScore overall;               ///< micro-average across clients
  std::size_t servers = 0;
  std::size_t deploy_refusals = 0;
  bool joined = false;

  /// One line, e.g. "57 services on 3 servers: 31 predicted to fail somewhere".
  std::string summary() const;
};

/// Predicts the whole corpus (in parallel) and optionally joins against the
/// dynamic study: predict_corpus_supervised (analysis/supervised_predict.hpp)
/// with no journal, which must cover every service. Output is deterministic
/// for a given options value regardless of `jobs`.
PredictReport predict_corpus(const PredictOptions& options = {});

/// Predicts one deployed service of `server` from its served text (pure;
/// safe to call from worker threads).
ServicePredictionRecord predict_service_job(std::string_view server,
                                            const frameworks::DeployedService& service);

/// The join + scoring passes over `report.services` (already corpus-ordered).
void finalize_predict_report(PredictReport& report, const PredictOptions& options,
                             obs::SpanId parent_span = obs::kNoSpan);

/// JSON round-trip for one record (the resilience journal's task payload).
/// Decode errors use "predict.bad-record".
std::string record_json(const ServicePredictionRecord& record);
Result<ServicePredictionRecord> record_from_json(std::string_view text);

/// Human-readable report: per-client predicted/observed error counts and
/// precision/recall/F1 when joined.
std::string format_predict_report(const PredictReport& report);

/// Human-readable verdict table for one description (the single-service
/// `wsinterop predict SERVER TYPE` output).
std::string format_service_prediction(const ServicePrediction& prediction);

}  // namespace wsx::analysis::predict
