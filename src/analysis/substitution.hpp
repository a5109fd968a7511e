// substitution.hpp — the corpus-wide substitution index.
//
// Maps shape fingerprints → services → predicted per-client verdicts, so
// "which service can replace Y for client X" is an index lookup instead of
// a corpus rescan (arXiv:1501.05983's matching-as-index idea applied to
// the failure matrix). Built from a PredictReport, serialized as a single
// versioned JSON document, reloadable by `wsinterop substitute`.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/predict.hpp"
#include "common/codec.hpp"
#include "common/result.hpp"

namespace wsx::analysis::predict {

/// One indexed deployed service.
struct IndexEntry {
  std::string server;
  std::string service;
  std::string type_name;
  std::string fingerprint;              ///< canonical shape fingerprint (hex)
  std::vector<std::string> operations;  ///< sorted unique operation names
  /// Worst predicted outcome per client (generation and compilation folded),
  /// parallel to SubstitutionIndex::clients.
  std::vector<Outcome> verdicts;

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

struct SubstitutionIndex {
  std::vector<std::string> clients;  ///< frameworks::make_clients() order
  std::vector<IndexEntry> entries;   ///< deterministic corpus order

  friend bool operator==(const SubstitutionIndex&, const SubstitutionIndex&) = default;
};

/// Serialization format version (the "version" field of the JSON document).
inline constexpr std::size_t kIndexVersion = 1;

// The index document's fields, declared once for common/codec.hpp.

template <class V>
void fields(V& v, IndexEntry& entry) {
  v("server", entry.server);
  v("service", entry.service);
  v("type", entry.type_name);
  v("fingerprint", entry.fingerprint);
  v("operations", entry.operations);
  v("verdicts", entry.verdicts);
}

template <class V>
void fields(V& v, SubstitutionIndex& index) {
  v("version", codec::Fixed{kIndexVersion});
  v("clients", index.clients);
  v("entries", index.entries);
}

/// Folds a predicted corpus into the index.
SubstitutionIndex build_index(const PredictReport& report);

/// One JSON document (no trailing newline); round-trips through
/// index_from_json byte-identically. Decode errors use "predict.bad-index".
std::string index_json(const SubstitutionIndex& index);
Result<SubstitutionIndex> index_from_json(std::string_view text);

struct SubstituteQuery {
  /// Client tool, matched exactly or as a case-insensitive substring
  /// ("gsoap" → "gSOAP Toolkit 2.8.16"; first registry-order match wins).
  std::string client;
  /// Target service: "Server/Service" or a bare service name (first entry
  /// in corpus order wins).
  std::string service;
  std::size_t top = 5;
};

/// One ranked replacement candidate.
struct Candidate {
  std::string server;
  std::string service;
  std::string fingerprint;
  double score = 0.0;            ///< operation Jaccard + fingerprint bonus
  bool fingerprint_match = false;  ///< same canonical shape as the target

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// Ranks the services the client is predicted to consume cleanly (verdict
/// ok), by operation-set similarity to the target with a +0.25 bonus for an
/// identical shape fingerprint. Ties break on (server, service), so results
/// are deterministic. Errors: unknown client, unknown target service.
Result<std::vector<Candidate>> substitute(const SubstitutionIndex& index,
                                          const SubstituteQuery& query);

/// Human-readable ranking for the CLI.
std::string format_candidates(const SubstituteQuery& query,
                              const std::vector<Candidate>& candidates);

}  // namespace wsx::analysis::predict
