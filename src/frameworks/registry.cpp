#include "frameworks/registry.hpp"

namespace wsx::frameworks {

std::vector<Round> make_rounds(const std::vector<std::unique_ptr<ServerFramework>>& servers,
                               const std::vector<ServiceSpec>& java,
                               const std::vector<ServiceSpec>& dotnet,
                               const std::vector<VersionPolicy>& versions) {
  std::vector<Round> rounds;
  for (const auto& server : servers) {
    const std::vector<ServiceSpec>* services = server->language() == "C#" ? &dotnet : &java;
    if (versions.empty()) {
      rounds.push_back({server.get(), services, std::nullopt, server->name()});
      continue;
    }
    for (const VersionPolicy policy : versions) {
      rounds.push_back({server.get(), services, policy,
                        server->name() + " [" + to_string(policy) + "]"});
    }
  }
  return rounds;
}

RoundTasks bindable_services(const std::vector<Round>& rounds) {
  RoundTasks out;
  out.refused.assign(rounds.size(), 0);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (const ServiceSpec& spec : *rounds[r].services) {
      if (spec.type == nullptr || !rounds[r].server->can_deploy(*spec.type)) {
        ++out.refused[r];
        continue;
      }
      out.tasks.push_back({r, &spec});
      const std::string& label = rounds[r].label;
      const std::string service = spec.service_name();
      std::string& id = out.ids.emplace_back();
      id.reserve(label.size() + 1 + service.size());
      id.append(label).append("|").append(service);
    }
  }
  return out;
}

Corpus::Corpus(const catalog::JavaCatalogSpec& java_spec,
               const catalog::DotNetCatalogSpec& dotnet_spec, ServiceShape shape,
               const std::vector<VersionPolicy>& versions)
    : java_catalog(catalog::make_java_catalog(java_spec)),
      dotnet_catalog(catalog::make_dotnet_catalog(dotnet_spec)),
      java_services(make_services(java_catalog, shape)),
      dotnet_services(make_services(dotnet_catalog, shape)),
      servers(make_servers()),
      rounds(make_rounds(servers, java_services, dotnet_services, versions)),
      plan(bindable_services(rounds)) {}

std::vector<soap::HybridProfile> client_profiles(
    const std::vector<std::unique_ptr<ClientFramework>>& clients,
    const std::vector<VersionPolicy>& versions) {
  std::vector<soap::HybridProfile> profiles;
  for (const auto& client : clients) {
    profiles.push_back(versions.empty() ? soap::HybridProfile::kPure11
                                        : profile_for(client->version_policy()));
  }
  return profiles;
}

}  // namespace wsx::frameworks
