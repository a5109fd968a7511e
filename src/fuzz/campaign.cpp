#include "fuzz/campaign.hpp"

#include <iomanip>
#include <sstream>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "common/strings.hpp"
#include "frameworks/registry.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"

namespace wsx::fuzz {

const char* to_string(Reaction reaction) {
  switch (reaction) {
    case Reaction::kRejected:
      return "rejected";
    case Reaction::kWarned:
      return "warned";
    case Reaction::kSilentSuccess:
      return "silent";
  }
  return "unknown";
}

std::size_t ToolRobustness::total(Reaction reaction) const {
  std::size_t total = 0;
  for (const auto& per_kind : counts) total += per_kind[static_cast<std::size_t>(reaction)];
  return total;
}

std::size_t ToolRobustness::silent_on_broken() const {
  std::size_t total = 0;
  for (MutationKind kind : all_mutation_kinds()) {
    if (!is_well_formed_kind(kind)) continue;
    // Benign-by-construction kinds don't count as "broken".
    if (kind == MutationKind::kInjectForeignElement) continue;
    total += count(kind, Reaction::kSilentSuccess);
  }
  return total;
}

namespace {

/// Picks `count` plain deployable descriptions from one server.
std::vector<std::string> pick_corpus(const frameworks::ServerFramework& server,
                                     const catalog::TypeCatalog& catalog,
                                     std::size_t count) {
  std::vector<std::string> corpus;
  for (const catalog::TypeInfo& type : catalog.types()) {
    if (corpus.size() >= count) break;
    const std::uint64_t plain_mask = static_cast<std::uint64_t>(catalog::Trait::kDefaultCtor) |
                                     static_cast<std::uint64_t>(catalog::Trait::kSerializable);
    if (type.traits != plain_mask || !server.can_deploy(type)) continue;
    Result<frameworks::DeployedService> service =
        server.deploy(frameworks::ServiceSpec{&type});
    if (service.ok()) corpus.push_back(std::move(service->wsdl_text));
  }
  return corpus;
}

Reaction classify(const frameworks::GenerationResult& result) {
  if (result.diagnostics.has_errors()) return Reaction::kRejected;
  if (result.diagnostics.has_warnings()) return Reaction::kWarned;
  return Reaction::kSilentSuccess;
}

}  // namespace

FuzzReport run_fuzz_campaign(const FuzzConfig& config) {
  FuzzReport report;
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog();
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog();

  report.tools.resize(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    report.tools[i].client = clients[i]->name();
  }

  for (const auto& server : servers) {
    const catalog::TypeCatalog& catalog =
        server->language() == "C#" ? dotnet_catalog : java_catalog;
    for (const std::string& base : pick_corpus(*server, catalog, config.corpus_per_server)) {
      ++report.corpus_size;
      for (const Mutant& mutant : mutate_all(base)) {
        ++report.mutant_count;
        const std::size_t kind_index = static_cast<std::size_t>(mutant.kind);
        ++report.mutants_per_kind[kind_index];

        // WS-I detection over well-formed mutants.
        if (is_well_formed_kind(mutant.kind)) {
          Result<wsdl::Definitions> parsed = wsdl::parse(mutant.wsdl_text);
          if (parsed.ok()) {
            const wsi::ComplianceReport compliance = wsi::check(*parsed);
            if (!compliance.compliant() || !compliance.warnings().empty()) {
              ++report.wsi_detected[kind_index];
            }
          } else {
            ++report.wsi_detected[kind_index];  // does not even parse
          }
        }

        for (std::size_t i = 0; i < clients.size(); ++i) {
          const Reaction reaction = classify(clients[i]->generate(mutant.wsdl_text));
          ++report.tools[i].counts[kind_index][static_cast<std::size_t>(reaction)];
        }
      }
    }
  }
  return report;
}

std::string format_fuzz(const FuzzReport& report) {
  std::ostringstream out;
  out << "WSDL robustness fuzzing — " << report.corpus_size << " base descriptions, "
      << report.mutant_count << " mutants, " << report.tools.size() << " client tools\n\n";

  out << "Per-mutation detection (tools rejecting or warning, and WS-I coverage):\n";
  out << "  " << std::left << std::setw(26) << "mutation" << std::right << std::setw(9)
      << "mutants" << std::setw(12) << "rejecting" << std::setw(10) << "warning"
      << std::setw(9) << "silent" << std::setw(13) << "WS-I flags" << "\n";
  for (MutationKind kind : all_mutation_kinds()) {
    const std::size_t kind_index = static_cast<std::size_t>(kind);
    if (report.mutants_per_kind[kind_index] == 0) continue;
    std::size_t rejecting = 0;
    std::size_t warning = 0;
    std::size_t silent = 0;
    for (const ToolRobustness& tool : report.tools) {
      rejecting += tool.count(kind, Reaction::kRejected);
      warning += tool.count(kind, Reaction::kWarned);
      silent += tool.count(kind, Reaction::kSilentSuccess);
    }
    out << "  " << std::left << std::setw(26) << to_string(kind) << std::right << std::setw(9)
        << report.mutants_per_kind[kind_index] << std::setw(12) << rejecting << std::setw(10)
        << warning << std::setw(9) << silent << std::setw(9)
        << (is_well_formed_kind(kind)
                ? std::to_string(report.wsi_detected[kind_index]) + "/" +
                      std::to_string(report.mutants_per_kind[kind_index])
                : std::string("n/a"))
        << "\n";
  }

  out << "\nPer-tool robustness (all mutants):\n";
  const int client_width = name_column_width("client", report.tools, &ToolRobustness::client);
  out << "  " << std::left << std::setw(client_width) << "client" << std::right << std::setw(10)
      << "rejected" << std::setw(9) << "warned" << std::setw(9) << "silent" << std::setw(18)
      << "silent-on-broken" << "\n";
  for (const ToolRobustness& tool : report.tools) {
    out << "  " << std::left << std::setw(client_width) << tool.client << std::right
        << std::setw(10)
        << tool.total(Reaction::kRejected) << std::setw(9) << tool.total(Reaction::kWarned)
        << std::setw(9) << tool.total(Reaction::kSilentSuccess) << std::setw(18)
        << tool.silent_on_broken() << "\n";
  }
  return out.str();
}

std::string fuzz_csv(const FuzzReport& report) {
  std::ostringstream out;
  out << "client,mutation,rejected,warned,silent\n";
  for (const ToolRobustness& tool : report.tools) {
    for (MutationKind kind : all_mutation_kinds()) {
      if (report.mutants_per_kind[static_cast<std::size_t>(kind)] == 0) continue;
      out << tool.client << ',' << to_string(kind) << ','
          << tool.count(kind, Reaction::kRejected) << ',' << tool.count(kind, Reaction::kWarned)
          << ',' << tool.count(kind, Reaction::kSilentSuccess) << '\n';
    }
  }
  return out.str();
}

}  // namespace wsx::fuzz
