// workloads.hpp — the benchmark's four workloads.
//
//   study        the paper's full batch through interop::run_study, in
//                repeated passes. Description build, deploy, generation and
//                compilation do nearly all the work and no envelope is ever
//                built, so description-build and campaign-engine changes
//                show here and envelope changes must not.
//   chaos        chaos::run_chaos_study with the default fault plan seeded
//                from --seed and 8 calls per pair: the envelope build,
//                parse, sniff, faulty-wire and policy path that the study
//                bypasses.
//   serve_query  a closed loop of verdict/explain/substitute requests
//                against the full-scale oracle, through the codec every
//                transport uses. Lookup cost grows with the corpus, so an
//                indexed lookup shows here.
//   serve_lint   the same loop and transport, every request a lint upload
//                of a served WSDL: the daemon's untrusted-parse write path,
//                with no oracle lookup, so a lookup gain must not show here.
//
// Each workload checks its own outputs (result digests, reference answers)
// and counts every check in its Tally. With `trace` set the run gives the
// per-layer numbers instead of the end-to-end ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "interop/study.hpp"
#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measured time (the traced run splits it)
  bool trace = false;
  /// Catalog scale; 100 = the paper's corpus. Only the tests shrink it.
  std::size_t scale_percent = 100;
  std::size_t workers = 1;          ///< campaign workers / serve clients
  std::string out_dir;              ///< where the traced run writes its spans
};

struct RunResult {
  bool correct = true;
  Tally tally;
  std::vector<Metric> metrics;
  /// Context printed beside the metrics: digests, sample counts, and why a
  /// per-layer metric is unavailable on this workload.
  std::vector<std::pair<std::string, std::string>> notes;
};

RunResult run_study_workload(const RunOptions& options);
RunResult run_chaos_workload(const RunOptions& options);
RunResult run_serve_query_workload(const RunOptions& options);
RunResult run_serve_lint_workload(const RunOptions& options);

// --- Pieces shared with the benchmark's tests ------------------------------

/// The catalogs at `percent` of the paper's population (each count scaled,
/// never below 1).
void scale_catalogs(wsx::catalog::JavaCatalogSpec& java, wsx::catalog::DotNetCatalogSpec& dotnet,
                    std::size_t percent);

/// Study digest: per-cell Table III counts plus the Fig. 4 totals, as text.
std::string study_digest(const wsx::interop::StudyResult& result);

/// Chaos digest: outcome counts and wire counters per (server, client) cell.
std::string chaos_digest(const wsx::chaos::ChaosResult& result);

/// One study pass composed from the campaign's public pieces (deploy,
/// shared description, generate, compile / instantiation check), with a
/// span around each call when tracing is enabled. Its digest must equal
/// run_study's for the same config.
/// `artifact_tests`, when non-null, is increased by the tests whose
/// generation produced artifacts.
wsx::interop::StudyResult composed_study_pass(const wsx::interop::StudyConfig& config,
                                              std::size_t* artifact_tests = nullptr);

/// One chaos pass composed from deploy, shared description and
/// run_chaos_chain, with spans when tracing is enabled. Its digest must
/// equal run_chaos_study's for the same config.
/// `refusals`, when non-null, is increased by the refused deployments.
wsx::chaos::ChaosResult composed_chaos_pass(const wsx::chaos::ChaosConfig& config,
                                            std::size_t* refusals = nullptr);

/// The chaos configuration of the chaos workload for a seed.
wsx::chaos::ChaosConfig chaos_config(const RunOptions& options, std::size_t jobs);

}  // namespace perfbench
