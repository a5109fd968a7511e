// campaign.cpp — the study and chaos workloads.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>

#include "chaos/policy.hpp"
#include "chaos/wire.hpp"
#include "common/pool.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wsx;

namespace {

/// Tests in one full-scale study pass: the paper's 7,239 services × 11 tools.
constexpr std::size_t kPaperTests = 79'629;
/// Logical calls per (service, client) pair in the chaos workload. Each
/// extra round adds envelope build, parse, sniff and policy work, so eight
/// rounds make the wire the larger part of a pass.
constexpr std::size_t kChaosCallsPerPair = 8;
/// Unmeasured passes before the clock starts: the first passes of a
/// process run slowest (allocator and cache warm-up).
constexpr double kWarmupSeconds = 1.0;

// --- Cold set-up in fresh processes -------------------------------------

struct ColdPass {
  bool ok = false;
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

/// Runs `pass` once in each of `repeats` forked children, one after the
/// other, so each pays what a fresh CLI invocation pays: lazy catalogs and
/// framework singletons. Must be called before this process touches any of
/// them (and before it starts a thread).
std::vector<ColdPass> cold_passes(std::size_t repeats, const std::function<std::string()>& pass) {
  std::vector<ColdPass> passes;
  std::fflush(nullptr);
  for (std::size_t i = 0; i < repeats; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      passes.push_back({});
      continue;
    }
    const pid_t child = fork();
    if (child == 0) {
      // The child never returns into the caller's code: any failure is an
      // exit status the parent reads as "did not finish".
      close(fds[0]);
      ColdPass result;
      try {
        const Clock::time_point start = Clock::now();
        const std::string digest = pass();
        result.seconds = seconds_since(start);
        result.digest = fnv1a(digest);
        result.ok = true;
      } catch (...) {
        _exit(1);
      }
      const ssize_t written = write(fds[1], &result, sizeof result);
      _exit(written == static_cast<ssize_t>(sizeof result) ? 0 : 1);
    }
    close(fds[1]);
    ColdPass result;
    if (child > 0) {
      std::size_t got = 0;
      auto* bytes = reinterpret_cast<char*>(&result);
      while (got < sizeof result) {
        const ssize_t n = read(fds[0], bytes + got, sizeof result - got);
        if (n > 0) {
          got += static_cast<std::size_t>(n);
        } else if (n == 0 || errno != EINTR) {
          break;
        }
      }
      int status = 0;
      while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
      }
      if (got != sizeof result || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        result = ColdPass{};
      }
    }
    close(fds[0]);
    passes.push_back(result);
  }
  return passes;
}

// --- The composed study pass --------------------------------------------

struct Partial {
  std::vector<interop::CellResult> cells;
  std::size_t same_framework_failures = 0;
  std::size_t same_platform_failures = 0;
  std::size_t flagged_with_downstream_error = 0;
  std::size_t generation_errors_on_flagged = 0;
  std::size_t generation_errors_on_compliant = 0;
  std::size_t artifact_tests = 0;
};

/// Steps (b)+(c) of one test, as interop::run_client_test runs them.
interop::ClientTestOutcome composed_test(const frameworks::SharedDescription& description,
                                         const frameworks::ClientFramework& client,
                                         const compilers::Compiler* compiler) {
  interop::ClientTestOutcome outcome;
  frameworks::GenerationResult generation = [&] {
    trace::Scope span("frameworks.generate");
    return client.generate(description);
  }();
  outcome.generation_warning = generation.diagnostics.has_warnings();
  outcome.generation_error = generation.diagnostics.has_errors();
  if (!generation.produced_artifacts()) return outcome;
  outcome.artifacts_generated = true;
  if (compiler == nullptr) {
    const DiagnosticSink instantiation = [&] {
      trace::Scope span("compilers.instantiate");
      return compilers::check_instantiation(*generation.artifacts);
    }();
    outcome.generation_warning |= instantiation.has_warnings();
    outcome.generation_error |= instantiation.has_errors();
    return outcome;
  }
  const DiagnosticSink compiled = [&] {
    trace::Scope span("compilers.compile");
    return compiler->compile(*generation.artifacts);
  }();
  outcome.compilation_warning = compiled.has_warnings();
  outcome.compilation_error = compiled.has_errors();
  return outcome;
}

interop::ServerResult composed_server(
    const frameworks::ServerFramework& server,
    const std::vector<frameworks::ServiceSpec>& services,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const std::vector<std::unique_ptr<compilers::Compiler>>& client_compilers,
    const interop::StudyConfig& config, interop::StudyResult& cross,
    std::size_t& artifact_tests) {
  interop::ServerResult result;
  result.server = server.name();
  result.application_server = server.application_server();
  result.services_created = services.size();

  const std::vector<frameworks::DeployedService> deployed =
      composed_deploy(server, services, result.deployment_refusals);
  result.services_deployed = deployed.size();
  const std::vector<frameworks::SharedDescription> descriptions =
      composed_describe(deployed, config.threads, /*with_wsi=*/true);

  std::vector<bool> flagged(deployed.size(), false);
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    const wsi::ComplianceReport& report = *descriptions[i].wsi_report();
    const bool zero_ops = deployed[i].wsdl.operation_count() == 0;
    if (!report.compliant()) ++result.wsi_failures;
    if (zero_ops) ++result.zero_operation_services;
    flagged[i] = !report.compliant() || zero_ops;
    if (flagged[i]) ++result.description_warnings;
  }

  trace::Scope testing("interop.testing_phase");
  const trace::SpanId parent = testing.id();
  const std::vector<Partial> partials = parallel_slices(
      deployed.size(), config.threads, [&](std::size_t begin, std::size_t end) {
        trace::Scope worker("interop.worker", parent);
        Partial partial;
        partial.cells.resize(clients.size());
        for (std::size_t s = begin; s < end; ++s) {
          bool service_errored = false;
          for (std::size_t c = 0; c < clients.size(); ++c) {
            const interop::ClientTestOutcome outcome =
                composed_test(descriptions[s], *clients[c], client_compilers[c].get());
            interop::CellResult& cell = partial.cells[c];
            ++cell.tests;
            if (outcome.artifacts_generated) ++partial.artifact_tests;
            if (outcome.generation_warning) ++cell.generation.warnings;
            if (outcome.generation_error) ++cell.generation.errors;
            if (outcome.compilation_warning) ++cell.compilation.warnings;
            if (outcome.compilation_error) ++cell.compilation.errors;
            if (outcome.any_error()) {
              service_errored = true;
              if (interop::same_framework_pair(result.server, clients[c]->name())) {
                ++partial.same_framework_failures;
              }
              if (interop::same_platform_pair(result.server, clients[c]->name())) {
                ++partial.same_platform_failures;
              }
            }
            if (outcome.generation_error) {
              if (flagged[s]) {
                ++partial.generation_errors_on_flagged;
              } else {
                ++partial.generation_errors_on_compliant;
              }
            }
          }
          if (flagged[s] && service_errored) ++partial.flagged_with_downstream_error;
        }
        return partial;
      });
  testing.end();

  result.cells.resize(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    result.cells[c].client = clients[c]->name();
    result.cells[c].client_language = clients[c]->language();
    result.cells[c].compiled = clients[c]->requires_compilation();
  }
  for (const Partial& partial : partials) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      result.cells[c].tests += partial.cells[c].tests;
      result.cells[c].generation += partial.cells[c].generation;
      result.cells[c].compilation += partial.cells[c].compilation;
    }
    cross.same_framework_failures += partial.same_framework_failures;
    cross.same_platform_failures += partial.same_platform_failures;
    cross.flagged_services_with_downstream_error += partial.flagged_with_downstream_error;
    cross.generation_errors_on_flagged += partial.generation_errors_on_flagged;
    cross.generation_errors_on_compliant += partial.generation_errors_on_compliant;
    artifact_tests += partial.artifact_tests;
  }
  cross.flagged_services += result.description_warnings;
  return result;
}

}  // namespace

// --- Public pieces ----------------------------------------------------------

void scale_catalogs(catalog::JavaCatalogSpec& java, catalog::DotNetCatalogSpec& dotnet,
                    std::size_t percent) {
  if (percent == 100) return;
  const auto scaled = [percent](std::size_t value) {
    return std::max<std::size_t>(1, value * percent / 100);
  };
  java.plain_beans = scaled(java.plain_beans);
  java.throwable_clean = scaled(java.throwable_clean);
  java.throwable_raw = scaled(java.throwable_raw);
  java.raw_generic_beans = scaled(java.raw_generic_beans);
  java.anytype_array_beans = scaled(java.anytype_array_beans);
  java.no_default_ctor = scaled(java.no_default_ctor);
  java.abstract_classes = scaled(java.abstract_classes);
  java.interfaces = scaled(java.interfaces);
  java.generic_types = scaled(java.generic_types);
  dotnet.plain_types = scaled(dotnet.plain_types);
  dotnet.dataset_plain = scaled(dotnet.dataset_plain);
  dotnet.deep_nesting_clean = scaled(dotnet.deep_nesting_clean);
  dotnet.deep_nesting_pathological = scaled(dotnet.deep_nesting_pathological);
  dotnet.non_serializable = scaled(dotnet.non_serializable);
  dotnet.no_default_ctor = scaled(dotnet.no_default_ctor);
  dotnet.generic_types = scaled(dotnet.generic_types);
  dotnet.abstract_classes = scaled(dotnet.abstract_classes);
  dotnet.interfaces = scaled(dotnet.interfaces);
}

std::string study_digest(const interop::StudyResult& result) {
  std::ostringstream out;
  for (const interop::ServerResult& server : result.servers) {
    out << server.server << " created=" << server.services_created
        << " deployed=" << server.services_deployed
        << " refused=" << server.deployment_refusals
        << " description_warnings=" << server.description_warnings
        << " wsi_failures=" << server.wsi_failures
        << " zero_operation=" << server.zero_operation_services << '\n';
    for (const interop::CellResult& cell : server.cells) {
      out << "  " << cell.client << " tests=" << cell.tests << " generation="
          << cell.generation.warnings << '/' << cell.generation.errors << " compilation="
          << cell.compilation.warnings << '/' << cell.compilation.errors << '\n';
    }
  }
  const interop::StepCounts generation = result.total_generation();
  const interop::StepCounts compilation = result.total_compilation();
  out << "tests=" << result.total_tests() << " services=" << result.total_services_created()
      << " refusals=" << result.total_deployment_refusals()
      << " description_warnings=" << result.total_description_warnings()
      << " generation=" << generation.warnings << '/' << generation.errors
      << " compilation=" << compilation.warnings << '/' << compilation.errors
      << " interop_errors=" << result.total_interop_errors()
      << " same_framework=" << result.same_framework_failures
      << " same_platform=" << result.same_platform_failures
      << " flagged=" << result.flagged_services << '/'
      << result.flagged_services_with_downstream_error
      << " generation_errors_flagged=" << result.generation_errors_on_flagged << '/'
      << result.generation_errors_on_compliant << '\n';
  return out.str();
}

std::string chaos_digest(const chaos::ChaosResult& result) {
  std::ostringstream out;
  for (const chaos::ChaosServerResult& server : result.servers) {
    out << server.server << " deployed=" << server.services_deployed << '\n';
    for (const chaos::ChaosCell& cell : server.cells) {
      out << "  " << cell.client << " outcomes=";
      for (std::size_t i = 0; i < chaos::kChaosOutcomeCount; ++i) {
        out << (i == 0 ? "" : ",") << cell.outcomes[i];
      }
      out << " retransmits=" << cell.retransmits << " faulted=" << cell.faulted_attempts
          << " challenged=" << cell.challenged << '/' << cell.challenged_ok
          << " breaker_trips=" << cell.breaker_trips << " virtual_ms=" << cell.virtual_ms
          << '\n';
    }
  }
  return out.str();
}

interop::StudyResult composed_study_pass(const interop::StudyConfig& config,
                                         std::size_t* artifact_tests) {
  interop::StudyResult result;
  trace::Scope pass("interop.pass");
  trace::Scope prepare("catalog.build");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog(config.dotnet_spec);
  const std::vector<frameworks::ServiceSpec> java_services =
      frameworks::make_services(java_catalog, config.shape);
  const std::vector<frameworks::ServiceSpec> dotnet_services =
      frameworks::make_services(dotnet_catalog, config.shape);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  prepare.end();

  std::size_t artifacts = 0;
  for (const auto& server : servers) {
    std::vector<std::unique_ptr<compilers::Compiler>> client_compilers;
    for (const auto& client : clients) {
      client_compilers.push_back(compilers::make_compiler(client->language()));
    }
    const bool is_dotnet = server->language() == "C#";
    result.servers.push_back(composed_server(*server, is_dotnet ? dotnet_services : java_services,
                                             clients, client_compilers, config, result,
                                             artifacts));
  }
  if (artifact_tests != nullptr) *artifact_tests += artifacts;
  return result;
}

chaos::ChaosResult composed_chaos_pass(const chaos::ChaosConfig& config,
                                       std::size_t* refusals) {
  chaos::ChaosResult result;
  result.plan = config.plan;
  result.calls_per_pair = config.calls_per_pair;

  trace::Scope pass("chaos.pass");
  trace::Scope prepare("catalog.build");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog(config.dotnet_spec);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> client_compilers;
  std::vector<chaos::ResiliencePolicy> policies;
  for (const auto& client : clients) {
    client_compilers.push_back(compilers::make_compiler(client->language()));
    policies.push_back(chaos::policy_for(client->name()));
  }
  prepare.end();

  for (const auto& server : servers) {
    const catalog::TypeCatalog& catalog =
        server->language() == "C#" ? dotnet_catalog : java_catalog;
    const chaos::FaultyWire wire(*server, config.plan);
    chaos::ChaosServerResult server_result;
    server_result.server = server->name();
    for (const auto& client : clients) {
      chaos::ChaosCell cell;
      cell.client = client->name();
      server_result.cells.push_back(std::move(cell));
    }

    std::vector<frameworks::ServiceSpec> specs;
    for (const catalog::TypeInfo& type : catalog.types()) {
      specs.push_back(frameworks::ServiceSpec{&type});
    }
    std::size_t refused = 0;
    const std::vector<frameworks::DeployedService> deployed =
        composed_deploy(*server, specs, refused);
    if (refusals != nullptr) *refusals += refused;
    server_result.services_deployed = deployed.size();
    const std::vector<frameworks::SharedDescription> descriptions =
        composed_describe(deployed, config.jobs, /*with_wsi=*/false);

    trace::Scope calls("interop.testing_phase");
    const trace::SpanId parent = calls.id();
    const auto partials = parallel_slices(
        deployed.size(), config.jobs, [&](std::size_t begin, std::size_t end) {
          trace::Scope worker("interop.worker", parent);
          std::vector<chaos::ChainDelta> partial(clients.size());
          for (std::size_t index = begin; index < end; ++index) {
            for (std::size_t i = 0; i < clients.size(); ++i) {
              const chaos::ChainDelta delta = [&] {
                trace::Scope span("chaos.chain");
                return chaos::run_chaos_chain(wire, *server, deployed[index],
                                              &descriptions[index], *clients[i],
                                              client_compilers[i].get(), policies[i], config,
                                              soap::HybridProfile::kPure11, server->name());
              }();
              chaos::ChainDelta& cell = partial[i];
              for (std::size_t o = 0; o < chaos::kChaosOutcomeCount; ++o) {
                cell.outcomes[o] += delta.outcomes[o];
              }
              cell.retransmits += delta.retransmits;
              cell.faulted_attempts += delta.faulted_attempts;
              cell.challenged += delta.challenged;
              cell.challenged_ok += delta.challenged_ok;
              cell.breaker_trips += delta.breaker_trips;
              cell.virtual_ms += delta.virtual_ms;
            }
          }
          return partial;
        });
    calls.end();
    for (const std::vector<chaos::ChainDelta>& partial : partials) {
      for (std::size_t i = 0; i < clients.size(); ++i) {
        chaos::ChaosCell& cell = server_result.cells[i];
        for (std::size_t o = 0; o < chaos::kChaosOutcomeCount; ++o) {
          cell.outcomes[o] += partial[i].outcomes[o];
        }
        cell.retransmits += partial[i].retransmits;
        cell.faulted_attempts += partial[i].faulted_attempts;
        cell.challenged += partial[i].challenged;
        cell.challenged_ok += partial[i].challenged_ok;
        cell.breaker_trips += partial[i].breaker_trips;
        cell.virtual_ms += partial[i].virtual_ms;
      }
    }
    result.servers.push_back(std::move(server_result));
  }
  return result;
}

chaos::ChaosConfig chaos_config(const RunOptions& options, std::size_t jobs) {
  chaos::ChaosConfig config;
  scale_catalogs(config.java_spec, config.dotnet_spec, options.scale_percent);
  config.plan.seed = options.seed;  // rate, kinds and burst stay the defaults
  config.calls_per_pair = kChaosCallsPerPair;
  config.jobs = jobs;
  return config;
}

// --- The workloads ----------------------------------------------------------

namespace {

interop::StudyConfig study_config(const RunOptions& options, std::size_t threads) {
  interop::StudyConfig config;
  scale_catalogs(config.java_spec, config.dotnet_spec, options.scale_percent);
  config.threads = threads;
  return config;
}

/// A campaign workload reduced to what the measurement loop needs.
struct Campaign {
  std::function<std::string(std::size_t workers)> pass;  ///< runs one pass, returns its digest
  std::function<std::size_t()> units;                    ///< work units per pass
  std::size_t setup_repeats = 5;  ///< cold set-ups per run; setup_s is their median
};

/// End-to-end run shared by study and chaos: cold set-ups in fresh
/// processes, a reference pass at one worker, warm-up, then timed passes at
/// the workload's worker count until the measured time is used up. Every
/// pass's digest is checked against the reference.
RunResult measure_campaign(const RunOptions& options, const Campaign& campaign,
                           std::string_view units_name) {
  RunResult out;
  const std::vector<ColdPass> cold =
      cold_passes(campaign.setup_repeats, [&] { return campaign.pass(options.workers); });

  const std::string reference = campaign.pass(1);
  const std::uint64_t reference_hash = fnv1a(reference);
  out.notes.emplace_back("digest", hex(reference_hash));
  out.notes.emplace_back("units_per_pass", std::to_string(campaign.units()));

  std::vector<double> setup_s;
  for (const ColdPass& pass : cold) {
    if (!pass.ok) {
      out.tally.fail("cold pass did not finish");
    } else if (pass.digest != reference_hash) {
      out.tally.fail("cold pass digest differs from the 1-worker reference");
    } else {
      out.tally.pass();
      setup_s.push_back(pass.seconds);
    }
  }

  const auto checked_pass = [&] {
    const Clock::time_point start = Clock::now();
    const std::string digest = campaign.pass(options.workers);
    const double seconds = seconds_since(start);
    if (digest == reference) {
      out.tally.pass();
    } else {
      out.tally.fail("pass digest differs from the 1-worker reference");
    }
    return seconds;
  };

  const Clock::time_point warmup = Clock::now();
  do {
    checked_pass();
  } while (seconds_since(warmup) < kWarmupSeconds);

  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  while (pass_s.size() < 3 || seconds_since(start) < options.seconds) {
    pass_s.push_back(checked_pass());
  }

  std::vector<double> pass_us;
  for (const double s : pass_s) pass_us.push_back(s * 1e6);
  const Percentile p50 = select_percentile(pass_us, 0.5);
  const Percentile p99 = select_percentile(pass_us, 0.99);
  const double units = static_cast<double>(campaign.units());
  add(out.metrics, "setup_s", median(setup_s), "s");
  out.notes.emplace_back("setup_runs_s", join_seconds(setup_s));
  add(out.metrics, "throughput", units / (p50.value / 1e6), "units/s");
  add(out.metrics, "latency_p50_us", p50.value, "us");
  add(out.metrics, "latency_p99_us", p99.value, "us");
  add(out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  out.notes.emplace_back("throughput_units", std::string(units_name) + " per second of a median pass");
  out.notes.emplace_back("latency_samples", std::to_string(p50.samples) + " passes");
  out.notes.emplace_back("pass_s", join_seconds(pass_s));
  if (!p99.supported) {
    out.notes.emplace_back("latency_p99_us",
                           "only " + std::to_string(p99.beyond) +
                               " passes rank above it (fewer than 10): it is the slowest pass, "
                               "not a supported p99");
  }
  out.correct = out.tally.failed == 0;
  return out;
}

/// Per-layer run shared by study and chaos: the untraced library pass, the
/// composed pass untraced and the composed pass traced alternate (plus a
/// sink-attached pass for the study) until the measured time is used up;
/// then the layer probes. The tracing overhead compares the composed pass
/// with itself, so it holds the cost of the spans and nothing else.
struct TracedCampaign {
  std::function<std::string()> library_pass;     ///< the untraced public entry point
  std::function<std::string()> composed_pass;    ///< the composition, traced when enabled
  std::function<std::string()> sinks_pass;       ///< library pass with obs sinks; may be empty
  std::function<void(std::vector<Metric>&, const std::map<std::string, trace::NameTotals>&,
                     std::size_t passes)>
      layer_metrics;
  bool probe_wsi = true;
};

RunResult trace_campaign(const RunOptions& options, const TracedCampaign& campaign,
                         const std::string& workload) {
  RunResult out;
  trace::set_enabled(false);
  const std::string reference = campaign.library_pass();  // also the warm-up
  out.notes.emplace_back("digest", hex(fnv1a(reference)));
  const auto check = [&](const std::string& digest, const char* what) {
    if (digest == reference) {
      out.tally.pass();
    } else {
      out.tally.fail(std::string(what) + " digest differs from the untraced pass");
    }
  };

  std::vector<double> library_s;
  std::vector<double> untraced_s;  // composed passes with tracing off
  std::vector<double> traced_s;
  std::vector<double> sinks_s;
  layers::Totals totals;
  std::vector<trace::Span> spans;  // the last traced pass, for the span file
  const Clock::time_point start = Clock::now();
  while (traced_s.size() < 2 || seconds_since(start) < options.seconds) {
    Clock::time_point t = Clock::now();
    check(campaign.library_pass(), "library pass");
    library_s.push_back(seconds_since(t));

    t = Clock::now();
    check(campaign.composed_pass(), "composed untraced pass");
    untraced_s.push_back(seconds_since(t));

    trace::set_enabled(true);
    t = Clock::now();
    const std::string composed = campaign.composed_pass();
    traced_s.push_back(seconds_since(t));
    trace::set_enabled(false);
    check(composed, "composed traced pass");
    // Totals are folded pass by pass and drain() frees the buffers, so
    // memory stays at one pass's spans (a full-scale study pass is ~170k).
    spans = trace::drain();
    for (const auto& [name, pass_totals] : trace::totals_by_name(spans)) {
      trace::NameTotals& sum = totals[name];
      sum.count += pass_totals.count;
      sum.total_ns += pass_totals.total_ns;
      sum.self_ns += pass_totals.self_ns;
    }

    if (campaign.sinks_pass) {
      t = Clock::now();
      check(campaign.sinks_pass(), "sink-attached pass");
      sinks_s.push_back(seconds_since(t));
    }
  }
  // Probes, on their own spans so they never mix with the passes'.
  interop::StudyConfig scaled;
  scale_catalogs(scaled.java_spec, scaled.dotnet_spec, options.scale_percent);
  const std::vector<frameworks::DeployedService> deployed =
      deploy_corpus(scaled.java_spec, scaled.dotnet_spec);
  ProbeBytes bytes;
  trace::set_enabled(true);
  probe_layers(deployed, campaign.probe_wsi, /*with_soap=*/true, bytes, out.tally);
  trace::set_enabled(false);
  std::vector<trace::Span> probe_spans = trace::drain();
  const auto probe_totals = trace::totals_by_name(probe_spans);

  campaign.layer_metrics(out.metrics, totals, traced_s.size());
  layers::add_probe_metrics(out.metrics, probe_totals, bytes, campaign.probe_wsi, true);
  add(out.metrics, "trace.overhead_ratio", median(traced_s) / median(untraced_s), "ratio");
  if (!sinks_s.empty()) {
    add(out.metrics, "obs.sink_overhead", median(library_s) / median(sinks_s), "ratio");
  }
  out.notes.emplace_back("traced_passes", std::to_string(traced_s.size()));
  out.notes.emplace_back("trace_overhead",
                         "composed pass median " + std::to_string(median(traced_s)) +
                             " s traced vs " + std::to_string(median(untraced_s)) +
                             " s untraced; library pass median " +
                             std::to_string(median(library_s)) + " s");

  // The file keeps the last traced pass and the probes; the metrics above
  // used every pass.
  spans.insert(spans.end(), probe_spans.begin(), probe_spans.end());
  if (!options.out_dir.empty()) {
    const std::string path =
        options.out_dir + "/spans-" + workload + "-seed" + std::to_string(options.seed) + ".tsv";
    if (trace::write_spans(path, spans)) {
      out.notes.emplace_back("spans", path);
    } else {
      out.notes.emplace_back("spans", "could not write " + path);
    }
  }
  out.correct = out.tally.failed == 0;
  return out;
}

}  // namespace

RunResult run_study_workload(const RunOptions& options) {
  const interop::StudyConfig config = study_config(options, options.workers);
  if (!options.trace) {
    Campaign campaign;
    std::size_t tests = 0;
    campaign.pass = [&](std::size_t workers) {
      interop::StudyConfig pass_config = config;
      pass_config.threads = workers;
      const interop::StudyResult result = interop::run_study(pass_config);
      tests = result.total_tests();
      return study_digest(result);
    };
    campaign.units = [&] { return tests; };
    RunResult out = measure_campaign(options, campaign, "tests");
    if (options.scale_percent == 100 && tests != kPaperTests) {
      out.correct = false;
      out.notes.emplace_back("error", "a full-scale pass ran " + std::to_string(tests) +
                                          " tests, not " + std::to_string(kPaperTests));
    }
    return out;
  }

  TracedCampaign campaign;
  interop::StudyResult last;
  std::size_t artifact_tests = 0;
  std::size_t tests = 0;
  campaign.library_pass = [&] { return study_digest(interop::run_study(config)); };
  campaign.composed_pass = [&] {
    last = composed_study_pass(config, &artifact_tests);
    tests += last.total_tests();
    return study_digest(last);
  };
  campaign.sinks_pass = [&] {
    obs::Tracer tracer;
    obs::Registry registry;
    interop::StudyConfig with_sinks = config;
    with_sinks.tracer = &tracer;
    with_sinks.metrics = &registry;
    return study_digest(interop::run_study(with_sinks));
  };
  campaign.layer_metrics = [&](std::vector<Metric>& metrics,
                               const std::map<std::string, trace::NameTotals>& totals,
                               std::size_t passes) {
    add(metrics, "catalog.build_ms", layers::mean_self(totals, "catalog.build", 1e6), "ms");
    add(metrics, "frameworks.deploy_us", layers::mean_self(totals, "frameworks.deploy", 1e3),
        "us");
    add(metrics, "frameworks.deploy_refusals",
        static_cast<double>(last.total_deployment_refusals()), "count");
    add(metrics, "frameworks.describe_us",
        layers::mean_self(totals, "frameworks.describe", 1e3), "us");
    add(metrics, "frameworks.generate_us",
        layers::mean_self(totals, "frameworks.generate", 1e3), "us");
    add(metrics, "compilers.compile_us", layers::mean_self(totals, "compilers.compile", 1e3),
        "us");
    add(metrics, "compilers.instantiate_us",
        layers::mean_self(totals, "compilers.instantiate", 1e3), "us");
    add(metrics, "frameworks.artifact_ratio",
        tests == 0 ? 0.0 : static_cast<double>(artifact_tests) / static_cast<double>(tests),
        "ratio");
    layers::add_engine_metrics(metrics, totals, passes, options.workers, "interop.pass");
  };
  RunResult out = trace_campaign(options, campaign, "study");

  // The last composed pass's prepare against the library's own: the same
  // deploy, refusal and WS-I counters per server.
  const auto servers = frameworks::make_servers();
  const catalog::TypeCatalog java = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog(config.dotnet_spec);
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const bool is_dotnet = servers[i]->language() == "C#";
    const interop::PreparedServer prepared = interop::prepare_server_campaign(
        *servers[i], frameworks::make_services(is_dotnet ? dotnet : java), config);
    const interop::ServerResult& mine = last.servers[i];
    const interop::ServerResult& theirs = prepared.result;
    if (mine.services_deployed == theirs.services_deployed &&
        mine.deployment_refusals == theirs.deployment_refusals &&
        mine.description_warnings == theirs.description_warnings &&
        mine.wsi_failures == theirs.wsi_failures &&
        mine.zero_operation_services == theirs.zero_operation_services) {
      out.tally.pass();
    } else {
      out.tally.fail("composed prepare differs from prepare_server_campaign");
    }
  }
  out.correct = out.tally.failed == 0;
  return out;
}

RunResult run_chaos_workload(const RunOptions& options) {
  if (!options.trace) {
    Campaign campaign;
    std::size_t calls = 0;
    campaign.pass = [&](std::size_t workers) {
      const chaos::ChaosResult result = chaos::run_chaos_study(chaos_config(options, workers));
      calls = result.total_attempted();
      return chaos_digest(result);
    };
    campaign.units = [&] { return calls; };
    campaign.setup_repeats = 3;  // a cold chaos pass takes ~2 s
    return measure_campaign(options, campaign, "logical calls");
  }

  const chaos::ChaosConfig config = chaos_config(options, options.workers);
  TracedCampaign campaign;
  chaos::ChaosResult last;
  std::size_t refusals = 0;
  campaign.library_pass = [&] { return chaos_digest(chaos::run_chaos_study(config)); };
  campaign.composed_pass = [&] {
    refusals = 0;
    last = composed_chaos_pass(config, &refusals);
    return chaos_digest(last);
  };
  campaign.probe_wsi = false;  // the chaos campaign builds descriptions without WS-I
  campaign.layer_metrics = [&](std::vector<Metric>& metrics,
                               const std::map<std::string, trace::NameTotals>& totals,
                               std::size_t passes) {
    std::size_t retransmits = 0;
    std::size_t faulted = 0;
    std::size_t trips = 0;
    std::size_t succeeded = 0;
    for (const chaos::ChaosServerResult& server : last.servers) {
      for (const chaos::ChaosCell& cell : server.cells) {
        retransmits += cell.retransmits;
        faulted += cell.faulted_attempts;
        trips += cell.breaker_trips;
        succeeded += cell.succeeded();
      }
    }
    const double attempted = static_cast<double>(last.total_attempted());
    const double challenged = static_cast<double>(last.total_challenged());
    add(metrics, "catalog.build_ms", layers::mean_self(totals, "catalog.build", 1e6), "ms");
    add(metrics, "frameworks.deploy_us", layers::mean_self(totals, "frameworks.deploy", 1e3),
        "us");
    add(metrics, "frameworks.deploy_refusals", static_cast<double>(refusals), "count");
    add(metrics, "frameworks.describe_us",
        layers::mean_self(totals, "frameworks.describe", 1e3), "us");
    layers::add_engine_metrics(metrics, totals, passes, options.workers, "chaos.pass");
    add(metrics, "chaos.chain_us", layers::mean_self(totals, "chaos.chain", 1e3), "us");
    add(metrics, "chaos.calls", attempted, "count");
    add(metrics, "chaos.delivery_attempts", attempted + static_cast<double>(retransmits),
        "count");
    add(metrics, "chaos.retransmits", static_cast<double>(retransmits), "count");
    add(metrics, "chaos.faulted_attempts", static_cast<double>(faulted), "count");
    add(metrics, "chaos.breaker_trips", static_cast<double>(trips), "count");
    add(metrics, "chaos.recovery_ratio",
        challenged == 0.0 ? 0.0 : static_cast<double>(last.total_challenged_ok()) / challenged,
        "ratio");
    add(metrics, "chaos.success_ratio",
        attempted == 0.0 ? 0.0 : static_cast<double>(succeeded) / attempted, "ratio");
  };
  return trace_campaign(options, campaign, "chaos");
}

}  // namespace perfbench
