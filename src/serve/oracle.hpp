// oracle.hpp — the compatibility oracle behind `wsinterop serve`.
//
// An Oracle is the daemon's read-only knowledge base: every service of the
// corpus deployed and parsed once through the SharedDescription pipeline,
// every client×service verdict precomputed by the static predictor, and the
// substitution index folded on top. Precomputation runs under the resilience supervisor with
// the serve cache file as its checkpoint journal, which buys the daemon
// warm restart for free: a restarted daemon resumes from the journal and
// replays the precomputed records instead of re-predicting the corpus, and
// the supervisor's determinism contract makes the resumed cache
// byte-identical to a cold recompute (verified by fingerprint()).
//
// After load() the Oracle is immutable, so any number of daemon threads
// answer queries against it without locks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "analysis/predict.hpp"
#include "analysis/substitution.hpp"
#include "analysis/supervised_predict.hpp"
#include "common/result.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::serve {

struct OracleOptions {
  analysis::predict::PredictOptions predict;  ///< corpus scale/shape/jobs
  /// The precompute's supervision: its checkpoint file is the verdict-cache
  /// journal ("" = none), its resume source the warm restart's.
  resilience::Supervision supervision;
};

class Oracle {
 public:
  /// Builds the oracle: the supervised verdict precompute, whose tasks each
  /// deploy one service of the corpus and predict it on the workers
  /// (checkpointed to and resumed from the cache journal as
  /// `options.supervision` says), then the substitution index. The study
  /// join is always off — the oracle serves predictions, it does not score
  /// them.
  static Result<Oracle> load(const OracleOptions& options);

  /// Supervisor report of the precompute (executed vs resumed counts feed
  /// the warm-restart measurement; tripped means the crash drill fired).
  const resilience::SupervisorReport& precompute() const { return precompute_; }

  std::size_t services() const { return report_.services.size(); }
  const std::vector<std::string>& clients() const { return index_.clients; }
  const std::vector<analysis::predict::ServicePredictionRecord>& records() const {
    return report_.services;
  }
  const analysis::predict::SubstitutionIndex& index() const { return index_; }

  /// FNV-1a over every precomputed record's canonical JSON, in corpus
  /// order — the byte-identity check between cold and warm caches.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // --- Query lookups. Errors use "serve.not-found". -----------------------

  /// Verdict body for one client×service pair: the predicted generation and
  /// compilation steps plus the folded verdict. `service` is
  /// "Server/Service" or a bare service name (first corpus-order match);
  /// `client` matches exactly or as a case-insensitive substring.
  Result<std::string> verdict(std::string_view client, std::string_view service) const;

  /// Explanation body: the responsible footnote mechanisms of the pair.
  Result<std::string> explain(std::string_view client, std::string_view service) const;

  /// Substitution body: ranked replacement candidates for the pair.
  Result<std::string> substitute(std::string_view client, std::string_view service,
                                 std::size_t top) const;

 private:
  Oracle() = default;

  const analysis::predict::ServicePredictionRecord* find_service(
      std::string_view service) const;
  const analysis::predict::ClientPrediction* find_client(
      const analysis::predict::ServicePredictionRecord& record,
      std::string_view client) const;

  analysis::predict::PredictReport report_;
  analysis::predict::SubstitutionIndex index_;
  resilience::SupervisorReport precompute_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace wsx::serve
