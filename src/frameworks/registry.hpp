// registry.hpp — the framework roster of the study (Tables I and II), and
// the corpus, rounds and task list a per-service campaign runs over it.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/client.hpp"
#include "frameworks/server.hpp"
#include "frameworks/version_policy.hpp"

namespace wsx::frameworks {

/// The three server-side subsystems of Table I, in table order:
/// Metro/GlassFish, JBossWS/JBoss AS, WCF/IIS.
std::vector<std::unique_ptr<ServerFramework>> make_servers();

/// The eleven client-side subsystems of Table II, in table order: Metro,
/// Axis1, Axis2, CXF, JBossWS, .NET (C#, VB, JScript), gSOAP, Zend, suds.
std::vector<std::unique_ptr<ClientFramework>> make_clients();

/// One server or client by name, or nullptr for an unknown name. With
/// `remedied`, the paper's remedy applies where it names one: JBossWS
/// refuses operation-less descriptions as Metro does (ablation A2); Metro,
/// CXF and JBossWS map the binding constructs through a manual bindings
/// customization, their errors becoming ".customized" warnings (§IV.B.2);
/// Axis1 generates its Exception/Error wrapper with consistent naming
/// (§IV.B.3). Any other framework is the same either way.
std::unique_ptr<ServerFramework> make_server(std::string_view name, bool remedied = false);
std::unique_ptr<ClientFramework> make_client(std::string_view name, bool remedied = false);

/// One round of a per-service campaign: a server and the services it is
/// asked to deploy, under an overridden version policy on the --versions
/// axis (none = its documented policy). `label` names the round in task
/// ids and reports: the server name, or "Server [policy]".
struct Round {
  const ServerFramework* server = nullptr;
  const std::vector<ServiceSpec>* services = nullptr;
  std::optional<VersionPolicy> policy;
  std::string label;
};

/// One round per server, or one per server × policy when `versions` is
/// non-empty. Java servers deploy `java`, C# servers `dotnet`.
std::vector<Round> make_rounds(const std::vector<std::unique_ptr<ServerFramework>>& servers,
                               const std::vector<ServiceSpec>& java,
                               const std::vector<ServiceSpec>& dotnet,
                               const std::vector<VersionPolicy>& versions = {});

/// One task of a per-service campaign: a service its round's server binds.
struct RoundService {
  std::size_t round = 0;
  const ServiceSpec* spec = nullptr;
};

/// The task list of a per-service campaign, round by round in service
/// order. A service the round's binder rejects up front (can_deploy) gets
/// no task; `refused[r]` counts round r's. `ids[i]` is task i's stable
/// journal id, "label|service".
struct RoundTasks {
  std::vector<RoundService> tasks;
  std::vector<std::string> ids;
  std::vector<std::size_t> refused;
};
RoundTasks bindable_services(const std::vector<Round>& rounds);

/// The corpus plan of a per-service campaign (§III.A): both catalogs and
/// their services in one shape, the three servers, the rounds over them and
/// the bindable services those rounds make the campaign's tasks. The rounds
/// point into it, so it is neither copied nor moved. The client roster stays
/// with the campaigns that run clients.
struct Corpus {
  Corpus(const catalog::JavaCatalogSpec& java_spec, const catalog::DotNetCatalogSpec& dotnet_spec,
         ServiceShape shape = ServiceShape::kSimpleEcho,
         const std::vector<VersionPolicy>& versions = {});
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  /// The round of task `index`.
  const Round& round(std::size_t index) const { return rounds[plan.tasks[index].round]; }
  /// Deploys task `index`'s service on its round's server.
  Result<DeployedService> deploy(std::size_t index) const {
    return round(index).server->deploy(*plan.tasks[index].spec);
  }

  catalog::TypeCatalog java_catalog;
  catalog::TypeCatalog dotnet_catalog;
  std::vector<ServiceSpec> java_services;
  std::vector<ServiceSpec> dotnet_services;
  std::vector<std::unique_ptr<ServerFramework>> servers;
  std::vector<Round> rounds;
  RoundTasks plan;
};

/// The hybrid profile each client dresses its calls in: the one its
/// documented policy implies on the --versions axis, pure 1.1 off it.
std::vector<soap::HybridProfile> client_profiles(
    const std::vector<std::unique_ptr<ClientFramework>>& clients,
    const std::vector<VersionPolicy>& versions);

}  // namespace wsx::frameworks
