#include "serve/oracle.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/hash.hpp"
#include "common/json.hpp"

namespace wsx::serve {

namespace predict = analysis::predict;

namespace {

Error not_found(std::string message) {
  return Error{"serve.not-found", std::move(message)};
}

std::string lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string step_json(const predict::StepPrediction& step) {
  json::ArrayWriter mechanisms;
  for (const std::string& mechanism : step.mechanisms) mechanisms.item(mechanism);
  return json::ObjectWriter{}
      .field("outcome", predict::to_string(step.outcome()))
      .raw_field("mechanisms", mechanisms.str())
      .str();
}

predict::Outcome folded_outcome(const predict::ClientPrediction& client) {
  const predict::Outcome generation = client.generation.outcome();
  const predict::Outcome compilation = client.compilation.outcome();
  return static_cast<int>(generation) >= static_cast<int>(compilation) ? generation
                                                                       : compilation;
}

}  // namespace

Result<Oracle> Oracle::load(const OracleOptions& options) {
  Oracle oracle;

  predict::PredictOptions predict_options = options.predict;
  predict_options.join_study = false;  // the oracle serves, it does not score

  Result<predict::SupervisedPredictResult> result =
      predict::predict_corpus_supervised(predict_options, options.supervision);
  if (!result.ok()) return result.error();
  oracle.report_ = std::move(result->report);
  oracle.precompute_ = std::move(result->supervisor);
  oracle.index_ = predict::build_index(oracle.report_);

  // FNV-1a over the canonical record JSON, corpus order. Identical between
  // a cold recompute and a journal-resumed warm start, or something broke.
  std::uint64_t hash = kFnvShortBasis;
  for (const predict::ServicePredictionRecord& record : oracle.report_.services) {
    hash = fnv1a("\n", fnv1a(predict::record_json(record), hash));
  }
  oracle.fingerprint_ = hash;
  return oracle;
}

const predict::ServicePredictionRecord* Oracle::find_service(std::string_view service) const {
  for (const predict::ServicePredictionRecord& record : report_.services) {
    if (service == record.server + "/" + record.service || service == record.service) {
      return &record;
    }
  }
  return nullptr;
}

const predict::ClientPrediction* Oracle::find_client(
    const predict::ServicePredictionRecord& record, std::string_view client) const {
  for (const predict::ClientPrediction& prediction : record.prediction.clients) {
    if (prediction.client == client) return &prediction;
  }
  const std::string needle = lower(client);
  for (const predict::ClientPrediction& prediction : record.prediction.clients) {
    if (lower(prediction.client).find(needle) != std::string::npos) return &prediction;
  }
  return nullptr;
}

Result<std::string> Oracle::verdict(std::string_view client, std::string_view service) const {
  const predict::ServicePredictionRecord* record = find_service(service);
  if (record == nullptr) return not_found("unknown service '" + std::string(service) + "'");
  const predict::ClientPrediction* prediction = find_client(*record, client);
  if (prediction == nullptr) return not_found("unknown client '" + std::string(client) + "'");

  json::ObjectWriter writer;
  writer.field("client", prediction->client)
      .field("server", record->server)
      .field("service", record->service)
      .field("verdict", predict::to_string(folded_outcome(*prediction)))
      .field("compiled", prediction->compiled)
      .field("artifacts", prediction->artifacts)
      .raw_field("generation", step_json(prediction->generation));
  if (prediction->compiled) {
    writer.raw_field("compilation", step_json(prediction->compilation));
  }
  return writer.str();
}

Result<std::string> Oracle::explain(std::string_view client, std::string_view service) const {
  const predict::ServicePredictionRecord* record = find_service(service);
  if (record == nullptr) return not_found("unknown service '" + std::string(service) + "'");
  const predict::ClientPrediction* prediction = find_client(*record, client);
  if (prediction == nullptr) return not_found("unknown client '" + std::string(client) + "'");

  // Union of both steps' mechanisms, kept sorted/deduplicated like the
  // per-step lists themselves.
  std::vector<std::string> mechanisms = prediction->generation.mechanisms;
  mechanisms.insert(mechanisms.end(), prediction->compilation.mechanisms.begin(),
                    prediction->compilation.mechanisms.end());
  std::sort(mechanisms.begin(), mechanisms.end());
  mechanisms.erase(std::unique(mechanisms.begin(), mechanisms.end()), mechanisms.end());

  json::ArrayWriter list;
  for (const std::string& mechanism : mechanisms) list.item(mechanism);
  return json::ObjectWriter{}
      .field("client", prediction->client)
      .field("server", record->server)
      .field("service", record->service)
      .field("verdict", predict::to_string(folded_outcome(*prediction)))
      .raw_field("mechanisms", list.str())
      .field("fingerprint", record->prediction.fingerprint)
      .str();
}

Result<std::string> Oracle::substitute(std::string_view client, std::string_view service,
                                       std::size_t top) const {
  predict::SubstituteQuery query;
  query.client = std::string(client);
  query.service = std::string(service);
  query.top = top;
  Result<std::vector<predict::Candidate>> ranked = predict::substitute(index_, query);
  if (!ranked.ok()) {
    // The index reports unknown client/service with its own codes; the wire
    // surface exposes them uniformly as not-found.
    return not_found(ranked.error().message);
  }

  json::ArrayWriter list;
  for (const predict::Candidate& candidate : ranked.value()) {
    list.raw_item(json::ObjectWriter{}
                      .field("server", candidate.server)
                      .field("service", candidate.service)
                      .field("score", candidate.score)
                      .field("fingerprint_match", candidate.fingerprint_match)
                      .str());
  }
  return json::ObjectWriter{}
      .field("client", query.client)
      .field("service", query.service)
      .raw_field("candidates", list.str())
      .str();
}

}  // namespace wsx::serve
