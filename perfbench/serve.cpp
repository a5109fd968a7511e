// serve.cpp — the serve_query and serve_lint workloads.
//
// Both are closed loops: each client sends its next request only after its
// reply, because the daemon's callers (CI jobs, lint hooks) wait for each
// answer. Requests go in-process through the codec every transport uses:
// frame → FrameReader → decode_request → Daemon::handle → encode_response →
// frame. TCP is not used: TcpServer::serve answers one connection at a
// time, so it would measure the transport's serialisation, not the daemon.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>

#include "analysis/predict.hpp"
#include "analysis/registry.hpp"
#include "analysis/substitution.hpp"
#include "analysis/supervised_predict.hpp"
#include "frameworks/registry.hpp"
#include "layers.hpp"
#include "serve/daemon.hpp"
#include "serve/oracle.hpp"
#include "workloads.hpp"
#include "wsdl/parser.hpp"

namespace perfbench {

using namespace wsx;

namespace {

/// Distinct requests per run. Keys are drawn uniformly over the whole
/// corpus into this pool, and clients draw from the pool, so the
/// single-threaded reference answer of every request sent is computed
/// before the clock starts.
constexpr std::size_t kQueryPool = 4096;
constexpr std::size_t kLintPool = 1024;
/// Virtual milliseconds the daemon's clock advances per request: more than
/// the costliest class (lint, 20), so in-order arrivals never queue.
constexpr std::uint64_t kTickMs = 25;
/// Throughput is the median over windows of this length.
constexpr double kWindowSeconds = 0.25;
constexpr double kWarmupSeconds = 0.5;
/// Oracle loads per run (setup_s is their median); a single load varies
/// by ±15% on a shared box.
constexpr std::size_t kSetupRepeats = 5;

/// splitmix64: the request mixes and body draws depend on the seed alone,
/// not on the standard library's distributions.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

struct PoolEntry {
  serve::Request request;
  std::string reference;  ///< the single-threaded answer's body
};

/// The library's admission settings, except that no class has a deadline
/// and the queue is unbounded. Concurrent clients reach admission in an
/// order that need not match their virtual arrival ticks, and the virtual
/// model would refuse a late-arriving early tick; this benchmark measures
/// wall-clock speed. A shed or deadline answer would still count as failed.
serve::DaemonSettings daemon_settings() {
  serve::DaemonSettings settings;
  settings.admission.queue_capacity = std::numeric_limits<std::size_t>::max();
  settings.admission.verdict.deadline_ms = 0;
  settings.admission.explain.deadline_ms = 0;
  settings.admission.substitute.deadline_ms = 0;
  settings.admission.lint.deadline_ms = 0;
  return settings;
}

const char* handle_span(serve::QueryKind kind) {
  switch (kind) {
    case serve::QueryKind::kVerdict:
      return "serve.handle.verdict";
    case serve::QueryKind::kExplain:
      return "serve.handle.explain";
    case serve::QueryKind::kSubstitute:
      return "serve.handle.substitute";
    case serve::QueryKind::kLint:
      return "serve.handle.lint";
    case serve::QueryKind::kStats:
      break;
  }
  return "serve.handle.stats";
}

/// One request through the codec and the daemon, as a transport runs it.
serve::Response exchange(serve::Daemon& daemon, serve::FrameReader& reader,
                         const serve::Request& request, std::atomic<std::uint64_t>& clock) {
  std::string payload;
  Result<bool> framed = false;
  {
    trace::Scope span("serve.frame");
    reader.feed(serve::frame(serve::encode_request(request)));
    framed = reader.next(payload);
  }
  if (!framed.ok() || !framed.value()) {
    return serve::Response{serve::StatusCode::kBadRequest, "", "frame did not round-trip", 0};
  }
  Result<serve::Request> decoded = [&] {
    trace::Scope span("serve.decode");
    return serve::decode_request(payload);
  }();
  if (!decoded.ok()) {
    return serve::Response{serve::StatusCode::kBadRequest, "", decoded.error().message, 0};
  }
  serve::Response response = [&] {
    trace::Scope span(handle_span(decoded->kind));
    return daemon.handle(*decoded, clock.fetch_add(kTickMs, std::memory_order_relaxed));
  }();
  {
    trace::Scope span("serve.encode");
    // A frame is never empty; testing it keeps the write from being elided.
    const std::string wire = serve::frame(serve::encode_response(response));
    if (wire.empty()) response.status = serve::StatusCode::kBadRequest;
  }
  return response;
}

struct LoopResult {
  Tally tally;
  std::vector<double> latency_us;
  double throughput = 0.0;  ///< median requests/s over the measured windows
  std::size_t windows = 0;
  std::map<std::string, std::uint64_t> statuses;
};

/// Runs `clients` closed-loop clients for a warm-up and then `seconds`.
/// Every answer is checked against its pool entry's reference; latencies
/// and completions inside the measured interval are recorded.
LoopResult closed_loop(serve::Daemon& daemon, const std::vector<PoolEntry>& pool,
                       std::size_t clients, double seconds, std::uint64_t seed,
                       std::atomic<std::uint64_t>& clock) {
  struct ClientLog {
    Tally tally;
    std::vector<double> latency_us;
    std::vector<double> done_s;  ///< completion, seconds after the measured start
    std::map<std::string, std::uint64_t> statuses;
  };
  std::vector<ClientLog> logs(clients);
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  const double measure_from = kWarmupSeconds;
  const double measure_to = kWarmupSeconds + seconds;

  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        Rng rng{seed * 0x100000001b3ull + c + 1};
        serve::FrameReader reader;
        while (!stop.load(std::memory_order_relaxed)) {
          const PoolEntry& entry = pool[rng.below(pool.size())];
          const double sent = seconds_since(start);
          serve::Response response;
          try {
            response = exchange(daemon, reader, entry.request, clock);
          } catch (const std::exception& error) {
            log.tally.fail(std::string("exception: ") + error.what());
            return;
          }
          const double done = seconds_since(start);
          const std::string failure = check_response(response, entry.reference);
          if (failure.empty()) {
            log.tally.pass();
          } else {
            log.tally.fail(failure);
          }
          if (sent >= measure_from && done <= measure_to) {
            log.latency_us.push_back((done - sent) * 1e6);
            log.done_s.push_back(done - measure_from);
            ++log.statuses[serve::to_string(response.status)];
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(measure_to));
    stop.store(true);
  }  // jthreads join here

  LoopResult result;
  std::vector<double> done_s;
  for (ClientLog& log : logs) {
    result.tally.merge(log.tally);
    result.latency_us.insert(result.latency_us.end(), log.latency_us.begin(),
                             log.latency_us.end());
    done_s.insert(done_s.end(), log.done_s.begin(), log.done_s.end());
    for (const auto& [status, count] : log.statuses) result.statuses[status] += count;
  }
  result.windows = static_cast<std::size_t>(seconds / kWindowSeconds);
  std::vector<double> per_window(std::max<std::size_t>(result.windows, 1), 0.0);
  for (const double t : done_s) {
    const auto w = static_cast<std::size_t>(t / kWindowSeconds);
    if (w < per_window.size()) per_window[w] += 1.0 / kWindowSeconds;
  }
  result.throughput = median(per_window);
  return result;
}

/// Loads the oracle `repeats` times; setup_s is the median load.
std::optional<serve::Oracle> load_oracle(const serve::OracleOptions& options,
                                         std::size_t repeats, std::vector<double>& setup_s,
                                         RunResult& out) {
  std::optional<serve::Oracle> oracle;
  for (std::size_t i = 0; i < std::max<std::size_t>(repeats, 1); ++i) {
    oracle.reset();  // never hold two corpora at once
    const Clock::time_point start = Clock::now();
    Result<serve::Oracle> loaded = [&] {
      trace::Scope span("serve.oracle_load");
      return serve::Oracle::load(options);
    }();
    if (!loaded.ok()) {
      out.tally.fail("oracle load failed: " + loaded.error().message);
      return std::nullopt;
    }
    setup_s.push_back(seconds_since(start));
    oracle.emplace(std::move(loaded.value()));
  }
  return oracle;
}

std::vector<PoolEntry> query_pool(const serve::Oracle& oracle, std::uint64_t seed) {
  // Exactly 70% verdict, 20% explain and 10% substitute, each class cycling
  // through the clients (a substitute's cost depends on its client), with
  // service keys drawn uniformly over the whole corpus. Fixing the shares
  // keeps the seed from moving the mix's cost; the keys still vary.
  Rng rng{seed};
  std::vector<PoolEntry> pool(kQueryPool);
  const std::size_t verdicts = kQueryPool * 70 / 100;
  const std::size_t explains = kQueryPool * 20 / 100;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    serve::Request& request = pool[i].request;
    std::size_t in_class = i;
    if (i < verdicts) {
      request.kind = serve::QueryKind::kVerdict;
    } else if (i < verdicts + explains) {
      request.kind = serve::QueryKind::kExplain;
      in_class -= verdicts;
    } else {
      request.kind = serve::QueryKind::kSubstitute;
      in_class -= verdicts + explains;
    }
    request.client = oracle.clients()[in_class % oracle.clients().size()];
    const auto& record = oracle.records()[rng.below(oracle.records().size())];
    request.service = record.server + "/" + record.service;
  }
  return pool;
}

std::vector<PoolEntry> lint_pool(const std::vector<frameworks::DeployedService>& corpus,
                                 std::uint64_t seed) {
  Rng rng{seed};
  std::vector<PoolEntry> pool(kLintPool);
  for (PoolEntry& entry : pool) {
    entry.request.kind = serve::QueryKind::kLint;
    entry.request.body = corpus[rng.below(corpus.size())].wsdl_text;
  }
  return pool;
}

/// The single-threaded reference answers, through the same path the loop
/// uses. A request whose reference is not `ok` fails every time it is sent.
void compute_references(serve::Daemon& daemon, std::vector<PoolEntry>& pool,
                        std::atomic<std::uint64_t>& clock, Tally& tally) {
  serve::FrameReader reader;
  for (PoolEntry& entry : pool) {
    const serve::Response response = exchange(daemon, reader, entry.request, clock);
    entry.reference = response.body;
    if (response.status == serve::StatusCode::kOk) {
      tally.pass();
    } else {
      tally.fail(std::string("reference status:") + serve::to_string(response.status));
    }
  }
}

/// The direct calls the daemon makes inside handle(), timed one by one on
/// this thread: admission (on a controller of our own with the daemon's
/// settings), the oracle lookups, and the lint path's parse and rule pack.
void time_layer_calls(const serve::Daemon& daemon, const std::vector<PoolEntry>& pool,
                      double& findings) {
  serve::AdmissionController admission(daemon_settings().admission);
  std::uint64_t now = 0;
  std::size_t lints = 0;
  for (const PoolEntry& entry : pool) {
    const serve::Request& request = entry.request;
    {
      trace::Scope span("serve.admission");
      (void)admission.admit(request.kind, now += kTickMs);
    }
    switch (request.kind) {
      case serve::QueryKind::kVerdict: {
        trace::Scope span("serve.lookup.verdict");
        (void)daemon.oracle().verdict(request.client, request.service);
        break;
      }
      case serve::QueryKind::kExplain: {
        trace::Scope span("serve.lookup.explain");
        (void)daemon.oracle().explain(request.client, request.service);
        break;
      }
      case serve::QueryKind::kSubstitute: {
        trace::Scope span("serve.lookup.substitute");
        (void)daemon.oracle().substitute(request.client, request.service, request.top);
        break;
      }
      case serve::QueryKind::kLint: {
        Result<wsdl::Definitions> definitions = [&] {
          trace::Scope span("wsdl.parse");
          return wsdl::parse(request.body);
        }();
        if (!definitions.ok()) break;
        analysis::AnalysisInput input;
        input.definitions = &definitions.value();
        input.uri = "upload.wsdl";
        trace::Scope span("analysis.analyze");
        findings += static_cast<double>(analysis::analyze(input).findings.size());
        ++lints;
        break;
      }
      case serve::QueryKind::kStats:
        break;
    }
  }
  if (lints != 0) findings /= static_cast<double>(lints);
}

/// The oracle's precompute composed from its public pieces, timed: the
/// supervised predictor pass and the substitution index. Its records must
/// hash to the loaded oracle's fingerprint.
bool compose_precompute(const serve::OracleOptions& options, const serve::Oracle& oracle) {
  analysis::predict::PredictOptions predict = options.predict;
  predict.join_study = false;
  Result<analysis::predict::SupervisedPredictResult> precomputed = [&] {
    trace::Scope span("analysis.precompute");
    return analysis::predict::predict_corpus_supervised(predict, {});
  }();
  if (!precomputed.ok()) return false;
  {
    trace::Scope span("analysis.index");
    (void)analysis::predict::build_index(precomputed->report);
  }
  // The oracle's fingerprint is FNV-1a over every record's JSON line.
  std::string records;
  for (const auto& record : precomputed->report.services) {
    records += analysis::predict::record_json(record) + '\n';
  }
  return fnv1a(records) == oracle.fingerprint();
}

/// Deploy and description build over the whole corpus, traced: the work
/// inside the oracle's load that the description-build items target.
void compose_corpus_description(const serve::OracleOptions& options, std::size_t workers,
                                std::size_t& refusals) {
  const auto catalogs = [&] {
    trace::Scope span("catalog.build");
    return std::make_pair(catalog::make_java_catalog(options.predict.java_spec),
                          catalog::make_dotnet_catalog(options.predict.dotnet_spec));
  }();
  for (const auto& server : frameworks::make_servers()) {
    const catalog::TypeCatalog& types =
        server->language() == "C#" ? catalogs.second : catalogs.first;
    const std::vector<frameworks::DeployedService> deployed =
        composed_deploy(*server, frameworks::make_services(types), refusals);
    (void)composed_describe(deployed, workers, /*with_wsi=*/false);
  }
}

/// One request class measured for the per-layer numbers: the reference
/// answers and the direct layer calls single-threaded (uncontended), then
/// the closed loop traced, and, when `compare_seconds` > 0, untraced for as
/// long first, which gives the tracing overhead.
struct TracedPhase {
  layers::Totals reference;  ///< uncontended spans
  layers::Totals loop;       ///< spans under the workload's clients
  LoopResult plain;          ///< untraced loop (empty unless compared)
  LoopResult traced;
  double findings = 0.0;     ///< mean lint findings per upload
  std::vector<trace::Span> spans;
};

TracedPhase trace_phase(serve::Daemon& daemon, std::vector<PoolEntry>& pool,
                        const RunOptions& options, double seconds, double compare_seconds,
                        std::atomic<std::uint64_t>& clock, Tally& tally) {
  TracedPhase phase;
  trace::set_enabled(true);
  compute_references(daemon, pool, clock, tally);
  time_layer_calls(daemon, pool, phase.findings);
  trace::set_enabled(false);
  phase.spans = trace::drain();
  phase.reference = trace::totals_by_name(phase.spans);
  if (compare_seconds > 0.0) {
    phase.plain =
        closed_loop(daemon, pool, options.workers, compare_seconds, options.seed, clock);
    tally.merge(phase.plain.tally);
  }
  trace::set_enabled(true);
  phase.traced = closed_loop(daemon, pool, options.workers, seconds, options.seed + 1, clock);
  trace::set_enabled(false);
  tally.merge(phase.traced.tally);
  const std::vector<trace::Span> loop_spans = trace::drain();
  phase.loop = trace::totals_by_name(loop_spans);
  phase.spans.insert(phase.spans.end(), loop_spans.begin(), loop_spans.end());
  return phase;
}

RunResult run_serve(const RunOptions& options, bool lint) {
  RunResult out;
  serve::OracleOptions oracle_options;
  scale_catalogs(oracle_options.predict.java_spec, oracle_options.predict.dotnet_spec,
                 options.scale_percent);
  oracle_options.predict.jobs = options.workers;

  trace::set_enabled(options.trace);
  std::vector<double> setup_s;
  std::optional<serve::Oracle> oracle =
      load_oracle(oracle_options, options.trace ? 1 : kSetupRepeats, setup_s, out);
  if (!oracle) {
    out.correct = false;
    return out;
  }

  // The traced run also attributes the load: the composed precompute, the
  // corpus's deploy and description build, and the parse probes.
  std::size_t refusals = 0;
  ProbeBytes bytes;
  if (options.trace) {
    if (compose_precompute(oracle_options, *oracle)) {
      out.tally.pass();
    } else {
      out.tally.fail("composed precompute differs from the oracle's fingerprint");
    }
    compose_corpus_description(oracle_options, options.workers, refusals);
  }
  trace::set_enabled(false);
  std::vector<frameworks::DeployedService> corpus;
  if (lint || options.trace) {
    corpus = deploy_corpus(oracle_options.predict.java_spec, oracle_options.predict.dotnet_spec);
  }
  if (options.trace) {
    trace::set_enabled(true);
    probe_layers(corpus, /*with_wsi=*/false, /*with_soap=*/false, bytes, out.tally);
    trace::set_enabled(false);
  }
  std::vector<trace::Span> spans = trace::drain();
  const layers::Totals setup_totals = trace::totals_by_name(spans);
  std::vector<PoolEntry> lint_requests;
  if (!corpus.empty()) lint_requests = lint_pool(corpus, options.seed);
  corpus = {};

  serve::Daemon daemon(std::move(*oracle), daemon_settings());
  oracle.reset();
  std::atomic<std::uint64_t> clock{0};
  std::vector<PoolEntry> pool = lint ? std::move(lint_requests) : query_pool(daemon.oracle(), options.seed);

  if (!options.trace) {
    compute_references(daemon, pool, clock, out.tally);
    LoopResult loop =
        closed_loop(daemon, pool, options.workers, options.seconds, options.seed, clock);
    out.tally.merge(loop.tally);
    const Percentile p50 = select_percentile(loop.latency_us, 0.5);
    const Percentile p99 = select_percentile(loop.latency_us, 0.99);
    add(out.metrics, "setup_s", median(setup_s), "s");
    add(out.metrics, "throughput", loop.throughput, "units/s");
    add(out.metrics, "latency_p50_us", p50.value, "us");
    add(out.metrics, "latency_p99_us", p99.value, "us");
    add(out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    out.notes.emplace_back("setup_runs_s", join_seconds(setup_s));
    out.notes.emplace_back("throughput_units", "answered requests per second, median of " +
                                                   std::to_string(loop.windows) +
                                                   " windows of 0.25 s");
    out.notes.emplace_back("latency_samples", std::to_string(p99.samples) + " requests, " +
                                                  std::to_string(p99.beyond) +
                                                  " beyond p99");
    if (!p99.supported) {
      out.notes.emplace_back("latency_p99_us", "fewer than 10 samples beyond p99");
    }
    for (const auto& [status, count] : loop.statuses) {
      out.notes.emplace_back("status." + status, std::to_string(count));
    }
    out.correct = out.tally.failed == 0;
    return out;
  }

  // The workload's own class: half the time untraced, half traced. The
  // query workload then measures the lint path too, for a quarter of the
  // time, so its layers are attributed on a workload the benchmark runs.
  const TracedPhase main = trace_phase(daemon, pool, options, options.seconds / 2,
                                       options.seconds / 2, clock, out.tally);
  std::optional<TracedPhase> lint_phase;
  if (!lint) {
    lint_phase = trace_phase(daemon, lint_requests, options, options.seconds / 4, 0.0, clock,
                             out.tally);
  }
  const TracedPhase& lints = lint ? main : *lint_phase;

  using layers::mean_self;
  std::vector<Metric>& m = out.metrics;
  add(m, "catalog.build_ms", mean_self(setup_totals, "catalog.build", 1e6), "ms");
  add(m, "frameworks.deploy_us", mean_self(setup_totals, "frameworks.deploy", 1e3), "us");
  add(m, "frameworks.deploy_refusals", static_cast<double>(refusals), "count");
  add(m, "frameworks.describe_us", mean_self(setup_totals, "frameworks.describe", 1e3), "us");
  layers::add_probe_metrics(m, setup_totals, bytes, /*with_wsi=*/false, /*with_soap=*/false);
  add(m, "analysis.precompute_s", mean_self(setup_totals, "analysis.precompute", 1e9), "s");
  add(m, "analysis.index_ms", mean_self(setup_totals, "analysis.index", 1e6), "ms");
  add(m, "analysis.analyze_us", mean_self(lints.reference, "analysis.analyze", 1e3), "us");
  add(m, "analysis.findings", lints.findings, "count");
  add(m, "serve.frame_ns", mean_self(main.loop, "serve.frame", 1.0), "ns");
  add(m, "serve.decode_ns", mean_self(main.loop, "serve.decode", 1.0), "ns");
  add(m, "serve.encode_ns", mean_self(main.loop, "serve.encode", 1.0), "ns");
  add(m, "serve.admission_ns", mean_self(main.reference, "serve.admission", 1.0), "ns");
  if (!lint) {
    add(m, "serve.lookup_us.verdict", mean_self(main.reference, "serve.lookup.verdict", 1e3),
        "us");
    add(m, "serve.lookup_us.explain", mean_self(main.reference, "serve.lookup.explain", 1e3),
        "us");
    add(m, "serve.lookup_us.substitute",
        mean_self(main.reference, "serve.lookup.substitute", 1e3), "us");
    add(m, "serve.handle_us.verdict", mean_self(main.loop, "serve.handle.verdict", 1e3), "us");
    add(m, "serve.handle_us.explain", mean_self(main.loop, "serve.handle.explain", 1e3), "us");
    add(m, "serve.handle_us.substitute", mean_self(main.loop, "serve.handle.substitute", 1e3),
        "us");
  }
  const double contended = mean_self(lints.loop, "serve.handle.lint", 1e3);
  add(m, "serve.handle_us.lint", contended, "us");
  add(m, "serve.lint_wait_us", contended - mean_self(lints.reference, "serve.handle.lint", 1e3),
      "us");
  for (const serve::StatusCode status :
       {serve::StatusCode::kOk, serve::StatusCode::kShedded,
        serve::StatusCode::kDeadlineExceeded, serve::StatusCode::kCircuitOpen,
        serve::StatusCode::kQuarantined, serve::StatusCode::kNotFound,
        serve::StatusCode::kBadRequest}) {
    const auto found = main.traced.statuses.find(serve::to_string(status));
    add(m, std::string("serve.status.") + serve::to_string(status),
        found == main.traced.statuses.end() ? 0.0 : static_cast<double>(found->second),
        "count");
  }
  add(m, "trace.overhead_ratio",
      main.traced.throughput > 0.0 ? main.plain.throughput / main.traced.throughput : 0.0,
      "ratio");
  out.notes.emplace_back("trace_overhead", "untraced " + std::to_string(main.plain.throughput) +
                                               " req/s vs traced " +
                                               std::to_string(main.traced.throughput) +
                                               " req/s");
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/spans-" + (lint ? "serve_lint" : "serve_query") +
                             "-seed" + std::to_string(options.seed) + ".tsv";
    spans.insert(spans.end(), main.spans.begin(), main.spans.end());
    if (lint_phase) spans.insert(spans.end(), lint_phase->spans.begin(), lint_phase->spans.end());
    out.notes.emplace_back("spans",
                           trace::write_spans(path, spans) ? path : "could not write " + path);
  }
  out.correct = out.tally.failed == 0;
  return out;
}

}  // namespace

RunResult run_serve_query_workload(const RunOptions& options) { return run_serve(options, false); }

RunResult run_serve_lint_workload(const RunOptions& options) { return run_serve(options, true); }

}  // namespace perfbench
