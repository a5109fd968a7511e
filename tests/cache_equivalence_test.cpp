// cache_equivalence_test — the parse-once description must be invisible in
// what every client does. Each campaign task builds one SharedDescription
// per deployed service (SharedDescription::from_deployed) and hands it to
// every client in turn; this pack keeps the per-client re-parse those
// tasks replaced as the oracle, over every deployed service of a small
// corpus and every client:
//   * generation from the shared description equals generation from the
//     served text alone (ClientFramework::generate(text)) in diagnostics and
//     artifacts, and its WS-I verdict equals wsi::check over the server
//     model — so a client tool sees only what the server published;
//   * an echo invocation and a chaos chain against the one shared
//     description equal the same call against a fresh description built
//     for that client alone, on the strict and shaded version rounds.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "chaos/campaign.hpp"
#include "chaos/policy.hpp"
#include "chaos/supervised.hpp"
#include "chaos/wire.hpp"
#include "common/codec.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "interop/communication.hpp"
#include "interop/supervised.hpp"
#include "wsi/profile.hpp"

namespace wsx {
namespace {

/// Small-but-not-tiny populations: every server, deployment refusals, WS-I
/// flags, zero-operation services and client errors.
catalog::JavaCatalogSpec small_java() {
  catalog::JavaCatalogSpec spec;
  spec.plain_beans = 40;
  spec.throwable_clean = 8;
  spec.throwable_raw = 2;
  spec.raw_generic_beans = 4;
  spec.anytype_array_beans = 2;
  spec.no_default_ctor = 12;
  spec.abstract_classes = 6;
  spec.interfaces = 8;
  spec.generic_types = 4;
  return spec;
}

catalog::DotNetCatalogSpec small_dotnet() {
  catalog::DotNetCatalogSpec spec;
  spec.plain_types = 42;
  spec.dataset_plain = 2;
  spec.deep_nesting_clean = 6;
  spec.deep_nesting_pathological = 1;
  spec.non_serializable = 16;
  spec.no_default_ctor = 14;
  spec.generic_types = 8;
  spec.abstract_classes = 5;
  spec.interfaces = 4;
  return spec;
}

/// The small corpus, its servers and clients, and one compiler per client.
struct Corpus {
  catalog::TypeCatalog java = catalog::make_java_catalog(small_java());
  catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog(small_dotnet());
  std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  std::vector<frameworks::ServiceSpec> dotnet_services = frameworks::make_services(dotnet);
  std::vector<std::unique_ptr<frameworks::ServerFramework>> servers = frameworks::make_servers();
  std::vector<std::unique_ptr<frameworks::ClientFramework>> clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;

  Corpus() {
    for (const auto& client : clients) {
      compilers.push_back(compilers::make_compiler(client->language()));
    }
  }

  std::vector<frameworks::Round> rounds(const std::vector<frameworks::VersionPolicy>& versions) {
    return frameworks::make_rounds(servers, java_services, dotnet_services, versions);
  }
};

const std::vector<frameworks::VersionPolicy> kRounds = {frameworks::VersionPolicy::kStrict,
                                                        frameworks::VersionPolicy::kShadedCxf};

/// Calls `visit(round, service)` for every service its round's server
/// deploys; returns how many there were.
template <typename Visit>
std::size_t for_each_deployed(const std::vector<frameworks::Round>& rounds, Visit&& visit) {
  std::size_t deployed = 0;
  for (const frameworks::Round& round : rounds) {
    for (const frameworks::ServiceSpec& spec : *round.services) {
      Result<frameworks::DeployedService> service = round.server->deploy(spec);
      if (!service.ok()) continue;
      ++deployed;
      visit(round, *service);
    }
  }
  return deployed;
}

TEST(CacheEquivalence, StudyOutputsAreIdenticalWithAndWithoutCache) {
  Corpus corpus;
  std::size_t with_artifacts = 0;
  std::size_t with_errors = 0;
  const std::size_t deployed = for_each_deployed(
      corpus.rounds({}), [&](const frameworks::Round& round,
                             const frameworks::DeployedService& service) {
        const std::string where = round.label + "/" + service.spec.service_name();
        const frameworks::SharedDescription shared =
            frameworks::SharedDescription::from_deployed(service);
        ASSERT_NE(shared.wsi_report(), nullptr) << where;
        EXPECT_EQ(shared.wsi_report()->summary(), wsi::check(service.wsdl).summary()) << where;
        for (const auto& client : corpus.clients) {
          const frameworks::GenerationResult cached = client->generate(shared);
          const frameworks::GenerationResult uncached = client->generate(service.wsdl_text);
          const std::string pair = where + " <- " + client->name();
          EXPECT_TRUE(cached.diagnostics.diagnostics() == uncached.diagnostics.diagnostics())
              << pair;
          ASSERT_EQ(cached.produced_artifacts(), uncached.produced_artifacts()) << pair;
          if (cached.diagnostics.has_errors()) ++with_errors;
          if (!cached.produced_artifacts()) continue;
          ++with_artifacts;
          EXPECT_EQ(cached.artifacts->language, uncached.artifacts->language) << pair;
          EXPECT_EQ(cached.artifacts->units, uncached.artifacts->units) << pair;
          EXPECT_EQ(cached.artifacts->client_operations, uncached.artifacts->client_operations)
              << pair;
        }
      });
  // The corpus reaches every outcome the oracle has to agree on.
  EXPECT_GT(deployed, 100u);
  EXPECT_GT(with_artifacts, 0u);
  EXPECT_GT(with_errors, 0u);
}

TEST(CacheEquivalence, CommunicationOutputsAreIdenticalWithAndWithoutCache) {
  Corpus corpus;
  const std::vector<soap::HybridProfile> profiles =
      frameworks::client_profiles(corpus.clients, kRounds);
  std::size_t invocations = 0;
  for_each_deployed(corpus.rounds(kRounds), [&](const frameworks::Round& round,
                                                const frameworks::DeployedService& service) {
    const frameworks::SharedDescription shared =
        frameworks::SharedDescription::from_deployed(service, /*with_wsi=*/false);
    for (std::size_t i = 0; i < corpus.clients.size(); ++i) {
      const auto invoke = [&](const frameworks::SharedDescription& description,
                              std::size_t& sniffed) {
        return codec::encode(interop::invoke_echo_once(
            *round.server, service, description, *corpus.clients[i], corpus.compilers[i].get(),
            &sniffed, profiles[i], &*round.policy));
      };
      std::size_t sniffed_cached = 0;
      std::size_t sniffed_uncached = 0;
      const std::string cached = invoke(shared, sniffed_cached);
      const std::string uncached = invoke(
          frameworks::SharedDescription::from_deployed(service, /*with_wsi=*/false),
          sniffed_uncached);
      EXPECT_EQ(cached, uncached) << round.label << "/" << service.spec.service_name()
                                  << " <- " << corpus.clients[i]->name();
      EXPECT_EQ(sniffed_cached, sniffed_uncached);
      ++invocations;
    }
  });
  EXPECT_GT(invocations, 1000u);
}

TEST(CacheEquivalence, ChaosOutputsAreIdenticalWithAndWithoutCache) {
  Corpus corpus;
  chaos::ChaosConfig config;
  config.plan.seed = 7;
  config.calls_per_pair = 2;
  config.versions = kRounds;
  const std::vector<soap::HybridProfile> profiles =
      frameworks::client_profiles(corpus.clients, kRounds);
  std::size_t chains = 0;
  for_each_deployed(corpus.rounds(kRounds), [&](const frameworks::Round& round,
                                                const frameworks::DeployedService& service) {
    chaos::FaultyWire wire(*round.server, config.plan);
    wire.set_server_policy(*round.policy);
    const frameworks::SharedDescription shared =
        frameworks::SharedDescription::from_deployed(service, /*with_wsi=*/false);
    for (std::size_t i = 0; i < corpus.clients.size(); ++i) {
      const frameworks::ClientFramework& client = *corpus.clients[i];
      const auto chain = [&](const frameworks::SharedDescription& description) {
        return codec::encode(chaos::run_chaos_chain(
            wire, *round.server, service, &description, client, corpus.compilers[i].get(),
            chaos::policy_for(client.name()), config, profiles[i], round.label));
      };
      EXPECT_EQ(chain(shared), chain(frameworks::SharedDescription::from_deployed(
                                   service, /*with_wsi=*/false)))
          << round.label << "/" << service.spec.service_name() << " <- " << client.name();
      ++chains;
    }
  });
  EXPECT_GT(chains, 1000u);
}

}  // namespace
}  // namespace wsx
