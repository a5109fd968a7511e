#include "analysis/predict.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "analysis/fingerprint.hpp"
#include "analysis/supervised_predict.hpp"
#include "catalog/type_info.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/roster.hpp"
#include "interop/study.hpp"

namespace wsx::analysis::predict {
namespace {

/// Mirrors build_type_class: the field list one complexType compiles to
/// (defect-free shape — defects are modelled as their own signals).
std::vector<std::string> class_field_names(const xsd::ComplexType& type) {
  std::vector<std::string> names;
  bool ref_member_emitted = false;
  for (const xsd::ElementDecl* element : type.elements()) {
    if (element->is_ref()) {
      // Repeated refs collapse onto one opaque member.
      if (!ref_member_emitted) {
        names.emplace_back("schemaData");
        ref_member_emitted = true;
      }
      continue;
    }
    names.push_back(element->name);
  }
  if (type.any_count() > 0) names.emplace_back("any");
  return names;
}

bool has_duplicate(const std::vector<std::string>& names, bool fold_case) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (fold_case ? iequals(names[i], names[j]) : names[i] == names[j]) return true;
    }
  }
  // The generated describe() method collides with a member of the same name.
  return std::any_of(names.begin(), names.end(), [fold_case](const std::string& name) {
    return fold_case ? iequals(name, "describe") : name == "describe";
  });
}

using frameworks::ArtifactBuildOptions;
using frameworks::FeatureRule;
using frameworks::WsdlFeatures;

/// Applies a tool's rules in row order, as its generation step does: a note
/// never classifies, a crash counts as an error, and each fired rule names
/// the mechanisms of its set flags. Returns true when a kStop rule ended
/// the step, which then builds no artifacts.
bool predict_generation(std::span<const FeatureRule> rules, const WsdlFeatures& features,
                        StepPrediction& out) {
  for (const FeatureRule& rule : rules) {
    if (!rule.fires(features)) continue;
    if (rule.severity != Severity::kNote) {
      (rule.severity == Severity::kWarning ? out.warning : out.error) = true;
      for (bool WsdlFeatures::*flag : rule.any_of) {
        if (flag != nullptr && features.*flag) {
          out.mechanisms.emplace_back(frameworks::mechanism_id(flag));
        }
      }
    }
    if (rule.effect == FeatureRule::Effect::kStop) return true;
  }
  return false;
}

/// An artifact defect a row may enable, the mechanism it is reported under
/// and the shape on which the compiler rejects (or, for raw collections,
/// warns about) the code it produces.
struct DefectRule {
  bool ArtifactBuildOptions::*defect;
  Outcome severity;
  const char* mechanism;
  bool (*when)(const ShapeSignals&);
};
constexpr DefectRule kDefectRules[] = {
    {&ArtifactBuildOptions::raw_collection_stubs, Outcome::kWarning, "raw-collections",
     [](const ShapeSignals&) { return true; }},
    {&ArtifactBuildOptions::throwable_wrapper_defect, Outcome::kError, "throwable-wrapper-defect",
     [](const ShapeSignals& s) { return s.throwable_wrapper; }},
    {&ArtifactBuildOptions::local_suffix_defect, Outcome::kError, "local-suffix-defect",
     [](const ShapeSignals& s) { return s.gregorian_element; }},
    {&ArtifactBuildOptions::wildcard_member_per_any, Outcome::kError, "double-wildcard-member",
     [](const ShapeSignals& s) { return s.double_wildcard; }},
    {&ArtifactBuildOptions::enum_wrapper_defect, Outcome::kError, "enum-wrapper-defect",
     [](const ShapeSignals& s) { return s.has_enum; }},
    {&ArtifactBuildOptions::missing_body_on_complex_shapes, Outcome::kError, "missing-body",
     [](const ShapeSignals& s) {
       return s.deep_nesting || (s.anytype_unbounded && s.has_named_types);
     }},
};

/// The compilation step of a row whose artifacts reach the compiler.
void predict_compilation(const frameworks::ClientPolicy& row, const ShapeSignals& signals,
                         StepPrediction& out) {
  if (row.artifacts.pathological_marker_on_very_deep && signals.very_deep_nesting) {
    // jsc crashes on the pathological unit and aborts the whole
    // compilation: nothing else surfaces.
    out = StepPrediction{false, true, {"deep-nesting-crash"}};
    return;
  }
  const auto report = [&out](Outcome severity, const char* mechanism) {
    (severity == Outcome::kWarning ? out.warning : out.error) = true;
    out.mechanisms.emplace_back(mechanism);
  };
  for (const DefectRule& rule : kDefectRules) {
    if (row.artifacts.*rule.defect && rule.when(signals)) report(rule.severity, rule.mechanism);
  }
  // Every compiler rejects colliding members (without case where its row
  // folds case) and a class extending an undefined base.
  if (compilers::folds_member_case(row.language) ? signals.duplicate_members_folded
                                                 : signals.duplicate_members) {
    report(Outcome::kError, "duplicate-member");
  }
  if (signals.unresolved_base) report(Outcome::kError, "unknown-base");
}

void finish_step(StepPrediction& step) {
  std::sort(step.mechanisms.begin(), step.mechanisms.end());
  step.mechanisms.erase(std::unique(step.mechanisms.begin(), step.mechanisms.end()),
                        step.mechanisms.end());
}

int percent(double value) { return static_cast<int>(value * 100.0 + 0.5); }

const char* outcome_word(Outcome outcome) { return to_string(outcome); }

void tally(ClientScore& score, const ClientPrediction& predicted,
           const interop::TestRecord& actual) {
  ++score.tests;
  const bool predicted_error = predicted.any_error();
  const bool actual_error = actual.generation_error || actual.compilation_error;
  if (predicted_error && actual_error) ++score.true_positives;
  if (predicted_error && !actual_error) ++score.false_positives;
  if (!predicted_error && actual_error) ++score.false_negatives;
  if (!predicted_error && !actual_error) ++score.true_negatives;
  if (predicted.generation.warning == actual.generation_warning &&
      predicted.generation.error == actual.generation_error &&
      predicted.compilation.warning == actual.compilation_warning &&
      predicted.compilation.error == actual.compilation_error) {
    ++score.exact_matches;
  }
}

}  // namespace

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kWarning:
      return "warning";
    default:
      return "error";
  }
}

bool from_string(std::string_view text, Outcome& out) {
  if (text == "ok") {
    out = Outcome::kOk;
  } else if (text == "warning") {
    out = Outcome::kWarning;
  } else if (text == "error") {
    out = Outcome::kError;
  } else {
    return false;
  }
  return true;
}

ShapeSignals collect_signals(const wsdl::Definitions& defs) {
  ShapeSignals signals;

  // The class names a generated types unit contains: every complexType plus
  // one enum wrapper per enumeration simpleType (base resolution space).
  std::set<std::string, std::less<>> class_names;
  for (const xsd::Schema& schema : defs.schemas) {
    for (const xsd::ComplexType& type : schema.complex_types) {
      if (!type.name.empty()) class_names.insert(type.name);
    }
    for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
      if (!simple.enumeration.empty()) {
        class_names.insert(simple.name);
        signals.has_enum = true;
      }
    }
  }

  for (const xsd::Schema& schema : defs.schemas) {
    for (const xsd::ComplexType& type : schema.complex_types) {
      signals.has_named_types = true;

      const std::vector<std::string> fields = class_field_names(type);
      if (has_duplicate(fields, /*fold_case=*/false)) signals.duplicate_members = true;
      if (has_duplicate(fields, /*fold_case=*/true)) signals.duplicate_members_folded = true;

      const bool throwable_name =
          ends_with(type.name, "Exception") || ends_with(type.name, "Error");
      for (const xsd::ElementDecl* element : type.elements()) {
        if (element->is_ref()) continue;
        if (throwable_name && element->name == "message") signals.throwable_wrapper = true;
        if (element->name == "gregorian") signals.gregorian_element = true;
      }

      if (!type.base.empty() && class_names.find(type.base.local_name()) == class_names.end()) {
        signals.unresolved_base = true;
      }
      if (type.any_count() >= 2) signals.double_wildcard = true;
      const std::size_t depth = type.nesting_depth();
      if (depth >= catalog::kDeepNestingDepth) signals.deep_nesting = true;
      if (depth >= catalog::kPathologicalNestingDepth) signals.very_deep_nesting = true;

      // anyType arrays anywhere in the model blank every generated
      // accessor body under the JScript backend.
      for (const xsd::ElementDecl* element : type.elements()) {
        if (!element->type.empty() && element->type.local_name() == "anyType" &&
            element->max_occurs == xsd::kUnbounded) {
          signals.anytype_unbounded = true;
        }
      }
    }
  }
  return signals;
}

ServicePrediction predict_service(const frameworks::SharedDescription& description) {
  ServicePrediction out;
  const bool parsed = description.parsed_ok();
  ShapeSignals signals;
  if (parsed) {
    out.fingerprint = fingerprint(description.definitions()).hex();
    signals = collect_signals(description.definitions());
  } else {
    // The raw served bytes are the only shape an unparseable description has.
    out.fingerprint = hex16(fnv1a(description.wsdl_text(), kFnvOffsetBasis));
  }

  for (const frameworks::ClientPolicy& row : frameworks::client_table()) {
    ClientPrediction prediction;
    prediction.client = row.name;
    prediction.compiled = code::requires_compilation(row.language);
    if (!parsed) {
      prediction.generation.error = true;
      prediction.generation.mechanisms = {"parse-failure"};
      prediction.artifacts = false;
      out.clients.push_back(std::move(prediction));
      continue;
    }
    const bool stopped =
        predict_generation(row.rules, description.features(), prediction.generation);
    prediction.artifacts =
        !stopped && (row.artifacts_survive_errors || !prediction.generation.error);
    if (prediction.compiled && prediction.artifacts) {
      predict_compilation(row, signals, prediction.compilation);
    }
    finish_step(prediction.generation);
    finish_step(prediction.compilation);
    out.clients.push_back(std::move(prediction));
  }
  return out;
}

double ClientScore::precision() const {
  const std::size_t flagged = true_positives + false_positives;
  return flagged == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(flagged);
}

double ClientScore::recall() const {
  const std::size_t errored = true_positives + false_negatives;
  return errored == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(errored);
}

double ClientScore::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

std::string PredictReport::summary() const {
  const std::size_t failing = static_cast<std::size_t>(std::count_if(
      services.begin(), services.end(), [](const ServicePredictionRecord& record) {
        return std::any_of(record.prediction.clients.begin(), record.prediction.clients.end(),
                           [](const ClientPrediction& c) { return c.any_error(); });
      }));
  return std::to_string(services.size()) + " services on " + std::to_string(servers) +
         " servers: " + std::to_string(failing) + " predicted to fail somewhere";
}

ServicePredictionRecord predict_service_job(std::string_view server,
                                            const frameworks::DeployedService& service) {
  ServicePredictionRecord record;
  record.server = server;
  record.service = service.spec.service_name();
  record.type_name = service.spec.type->name;
  record.uri = record.server + "/" + record.service + ".wsdl";
  const frameworks::SharedDescription description =
      frameworks::SharedDescription::from_text(service.wsdl_text);
  if (description.parsed_ok()) {
    std::set<std::string> operations;
    for (const wsdl::PortType& port_type : description.definitions().port_types) {
      for (const wsdl::Operation& operation : port_type.operations) {
        operations.insert(operation.name);
      }
    }
    record.operations.assign(operations.begin(), operations.end());
  }
  record.prediction = predict_service(description);
  return record;
}

PredictReport predict_corpus(const PredictOptions& options) {
  return resilience::require_complete(predict_corpus_supervised(options, {})).report;
}

void finalize_predict_report(PredictReport& report, const PredictOptions& options,
                             obs::SpanId parent_span) {
  const std::span<const frameworks::ClientPolicy> rows = frameworks::client_table();
  report.clients.clear();
  report.overall = ClientScore{};
  report.overall.client = "overall";
  for (const frameworks::ClientPolicy& row : rows) {
    ClientScore score;
    score.client = row.name;
    report.clients.push_back(std::move(score));
  }
  if (!options.join_study) return;

  // Ground truth: replay the dynamic study over the same corpus and keep
  // each test's four step flags.
  obs::Span join_span(options.tracer, "pass:join", parent_span);
  obs::ScopedTimer join_timer = obs::timer(options.metrics, "predict.phase.join_us");
  report.joined = true;
  std::map<std::string, interop::TestRecord, std::less<>> actual;
  interop::StudyConfig study;
  study.java_spec = options.java_spec;
  study.dotnet_spec = options.dotnet_spec;
  study.shape = options.shape;
  study.threads = options.jobs;
  study.observer = [&actual](const interop::TestRecord& record) {
    actual[record.server + "|" + record.service + "|" + record.client] = record;
  };
  (void)interop::run_study(study);

  for (const ServicePredictionRecord& service : report.services) {
    for (std::size_t i = 0; i < service.prediction.clients.size() && i < rows.size(); ++i) {
      const ClientPrediction& prediction = service.prediction.clients[i];
      const auto it =
          actual.find(service.server + "|" + service.service + "|" + prediction.client);
      if (it == actual.end()) continue;
      tally(report.clients[i], prediction, it->second);
      tally(report.overall, prediction, it->second);
    }
  }
  obs::add(options.metrics, "predict.join.tests", report.overall.tests);
  join_span.annotate("tests", report.overall.tests);
  join_span.end();
  join_timer.stop();
}

std::string record_json(const ServicePredictionRecord& record) { return codec::encode(record); }

Result<ServicePredictionRecord> record_from_json(std::string_view text) {
  return codec::decode_value<ServicePredictionRecord>(text, "predict.bad-record",
                                                      "prediction record");
}

std::string format_predict_report(const PredictReport& report) {
  std::string out = report.summary() + "\n";
  if (report.deploy_refusals != 0) {
    out += "  (" + std::to_string(report.deploy_refusals) + " deploy refusals excluded)\n";
  }
  if (!report.joined) {
    // Unjoined: per-client predicted classification counts.
    const std::span<const frameworks::ClientPolicy> rows = frameworks::client_table();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::size_t errors = 0;
      std::size_t warnings = 0;
      for (const ServicePredictionRecord& service : report.services) {
        if (i >= service.prediction.clients.size()) continue;
        const ClientPrediction& prediction = service.prediction.clients[i];
        if (prediction.any_error()) {
          ++errors;
        } else if (prediction.generation.warning || prediction.compilation.warning) {
          ++warnings;
        }
      }
      out += "  " + std::string(rows[i].name) + ": " + std::to_string(errors) +
             " predicted errors, " + std::to_string(warnings) + " predicted warnings\n";
    }
    return out;
  }
  const auto score_line = [](const ClientScore& score) {
    return score.client + ": precision " + std::to_string(percent(score.precision())) +
           "%, recall " + std::to_string(percent(score.recall())) + "%, F1 " +
           std::to_string(percent(score.f1())) + "% | exact " +
           std::to_string(score.exact_matches) + "/" + std::to_string(score.tests);
  };
  for (const ClientScore& score : report.clients) out += "  " + score_line(score) + "\n";
  out += "  " + score_line(report.overall) + "\n";
  return out;
}

std::string format_service_prediction(const ServicePrediction& prediction) {
  std::string out = "fingerprint " + prediction.fingerprint + "\n";
  for (const ClientPrediction& client : prediction.clients) {
    std::string line = "  " + client.client + ": generation " +
                       outcome_word(client.generation.outcome());
    if (!client.compiled) {
      line += " (dynamic; no compilation step)";
    } else if (!client.artifacts) {
      line += ", no artifacts";
    } else {
      line += ", compilation " + std::string(outcome_word(client.compilation.outcome()));
    }
    std::vector<std::string> mechanisms = client.generation.mechanisms;
    mechanisms.insert(mechanisms.end(), client.compilation.mechanisms.begin(),
                      client.compilation.mechanisms.end());
    std::sort(mechanisms.begin(), mechanisms.end());
    mechanisms.erase(std::unique(mechanisms.begin(), mechanisms.end()), mechanisms.end());
    if (!mechanisms.empty()) {
      line += " [";
      for (std::size_t i = 0; i < mechanisms.size(); ++i) {
        if (i != 0) line += ", ";
        line += mechanisms[i];
      }
      line += "]";
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace wsx::analysis::predict
