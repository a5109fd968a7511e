#include "analysis/substitution.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "frameworks/roster.hpp"

namespace wsx::analysis::predict {
namespace {

Outcome worst_outcome(const ClientPrediction& prediction) {
  if (prediction.any_error()) return Outcome::kError;
  if (prediction.generation.warning || prediction.compilation.warning) return Outcome::kWarning;
  return Outcome::kOk;
}

/// Case-insensitive substring match (ASCII), for client-name lookups.
bool icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

/// Jaccard similarity of two sorted operation-name sets.
double operations_similarity(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  std::size_t common = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const std::size_t unioned = a.size() + b.size() - common;
  return unioned == 0 ? 1.0 : static_cast<double>(common) / static_cast<double>(unioned);
}

}  // namespace

SubstitutionIndex build_index(const PredictReport& report) {
  SubstitutionIndex index;
  for (const frameworks::ClientPolicy& row : frameworks::client_table()) {
    index.clients.emplace_back(row.name);
  }
  index.entries.reserve(report.services.size());
  for (const ServicePredictionRecord& record : report.services) {
    IndexEntry entry;
    entry.server = record.server;
    entry.service = record.service;
    entry.type_name = record.type_name;
    entry.fingerprint = record.prediction.fingerprint;
    entry.operations = record.operations;
    entry.verdicts.reserve(record.prediction.clients.size());
    for (const ClientPrediction& prediction : record.prediction.clients) {
      entry.verdicts.push_back(worst_outcome(prediction));
    }
    index.entries.push_back(std::move(entry));
  }
  return index;
}

std::string index_json(const SubstitutionIndex& index) { return codec::encode(index); }

Result<SubstitutionIndex> index_from_json(std::string_view text) {
  Result<SubstitutionIndex> index =
      codec::decode_value<SubstitutionIndex>(text, "predict.bad-index", "substitution index");
  if (!index.ok()) return index;
  for (const IndexEntry& entry : index->entries) {
    if (entry.verdicts.size() != index->clients.size()) {
      return Error{"predict.bad-index", "substitution index: entry " + entry.server + "/" +
                                            entry.service +
                                            " verdict count does not match client count"};
    }
  }
  return index;
}

Result<std::vector<Candidate>> substitute(const SubstitutionIndex& index,
                                          const SubstituteQuery& query) {
  // Client: exact name first, then case-insensitive substring.
  std::size_t client_index = index.clients.size();
  for (std::size_t i = 0; i < index.clients.size(); ++i) {
    if (index.clients[i] == query.client) {
      client_index = i;
      break;
    }
  }
  if (client_index == index.clients.size()) {
    for (std::size_t i = 0; i < index.clients.size(); ++i) {
      if (icontains(index.clients[i], query.client)) {
        client_index = i;
        break;
      }
    }
  }
  if (client_index == index.clients.size()) {
    return Error{"predict.unknown-client", "no indexed client matches '" + query.client + "'"};
  }

  // Target: "Server/Service" or bare service name, first match in corpus
  // order.
  const IndexEntry* target = nullptr;
  const std::size_t slash = query.service.find('/');
  for (const IndexEntry& entry : index.entries) {
    const bool matches = slash == std::string::npos
                             ? entry.service == query.service
                             : entry.server == query.service.substr(0, slash) &&
                                   entry.service == query.service.substr(slash + 1);
    if (matches) {
      target = &entry;
      break;
    }
  }
  if (target == nullptr) {
    return Error{"predict.unknown-service", "no indexed service matches '" + query.service + "'"};
  }

  std::vector<Candidate> candidates;
  for (const IndexEntry& entry : index.entries) {
    if (&entry == target) continue;
    if (client_index >= entry.verdicts.size() ||
        entry.verdicts[client_index] != Outcome::kOk) {
      continue;
    }
    Candidate candidate;
    candidate.server = entry.server;
    candidate.service = entry.service;
    candidate.fingerprint = entry.fingerprint;
    candidate.fingerprint_match = entry.fingerprint == target->fingerprint;
    candidate.score = operations_similarity(entry.operations, target->operations) +
                      (candidate.fingerprint_match ? 0.25 : 0.0);
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.server != b.server) return a.server < b.server;
    return a.service < b.service;
  });
  if (candidates.size() > query.top) candidates.resize(query.top);
  return candidates;
}

std::string format_candidates(const SubstituteQuery& query,
                              const std::vector<Candidate>& candidates) {
  std::string out = "substitutes for " + query.service + " (client: " + query.client + ")\n";
  if (candidates.empty()) {
    out += "  (no clean candidate in the index)\n";
    return out;
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& candidate = candidates[i];
    // Two-decimal score, locale-free.
    const int hundredths = static_cast<int>(candidate.score * 100.0 + 0.5);
    out += "  " + std::to_string(i + 1) + ". " + candidate.server + "/" + candidate.service +
           " score " + std::to_string(hundredths / 100) + "." +
           (hundredths % 100 < 10 ? "0" : "") + std::to_string(hundredths % 100);
    if (candidate.fingerprint_match) out += " (identical shape)";
    out += "\n";
  }
  return out;
}

}  // namespace wsx::analysis::predict
