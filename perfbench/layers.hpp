// layers.hpp — helpers the workloads share: the traced calls into the
// description-build layers, the layer probes, and turning span totals into
// per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/server.hpp"
#include "frameworks/shared_description.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
std::uint64_t fnv1a(std::string_view text);
std::string hex(std::uint64_t value);
void add(std::vector<Metric>& metrics, std::string name, double value, std::string unit);
/// "0.612 0.655 0.640": each value with three decimals, for the notes.
std::string join_seconds(const std::vector<double>& values);

/// Deploys each spec in order under an "interop.deploy_phase" span, one
/// "frameworks.deploy" span per call; refused deployments are counted.
std::vector<wsx::frameworks::DeployedService> composed_deploy(
    const wsx::frameworks::ServerFramework& server,
    const std::vector<wsx::frameworks::ServiceSpec>& services, std::size_t& refusals);

/// Builds the shared descriptions on `workers` threads under an
/// "interop.describe_phase" span, one "frameworks.describe" span per call.
std::vector<wsx::frameworks::SharedDescription> composed_describe(
    const std::vector<wsx::frameworks::DeployedService>& deployed, std::size_t workers,
    bool with_wsi);

/// Deploys every service of every server, untraced.
std::vector<wsx::frameworks::DeployedService> deploy_corpus(
    const wsx::catalog::JavaCatalogSpec& java_spec,
    const wsx::catalog::DotNetCatalogSpec& dotnet_spec);

/// Bytes handed to each probed layer, to turn span time into ns/byte.
struct ProbeBytes {
  double served = 0.0;   ///< served WSDL text (xml and wsdl parse)
  double built = 0.0;    ///< envelopes built
  double parsed = 0.0;   ///< envelopes parsed
  double sniffed = 0.0;  ///< request envelopes sniffed
  std::size_t envelopes = 0;
};

/// Times xml::parse_element, wsdl::parse and (optionally) wsi::check on
/// every served WSDL and, with `with_soap`, one echo request and its
/// response through the envelope layer per deployed service. Meant to run
/// on one thread after the timed passes, so nothing shares the CPU with a
/// probe.
void probe_layers(const std::vector<wsx::frameworks::DeployedService>& deployed, bool with_wsi,
                  bool with_soap, ProbeBytes& bytes, Tally& tally);

namespace layers {

using Totals = std::map<std::string, trace::NameTotals>;

/// Mean self time of the spans named `name`, divided by `scale` (1e3 for µs).
double mean_self(const Totals& totals, const char* name, double scale);

/// ns/byte of the parse layers, µs per WS-I check and the envelope metrics.
void add_probe_metrics(std::vector<Metric>& metrics, const Totals& totals,
                       const ProbeBytes& bytes, bool with_wsi, bool with_soap);

/// Campaign-engine metrics over `passes` composed passes: phase walls per
/// pass, and the share of worker time left idle (1 − busy ÷ workers·wall,
/// the serial catalog and deploy work counting as one busy worker).
void add_engine_metrics(std::vector<Metric>& metrics, const Totals& totals, std::size_t passes,
                        std::size_t workers, const char* pass_name);

}  // namespace layers
}  // namespace perfbench
