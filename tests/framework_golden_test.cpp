// Pins what every in-tree framework model does, byte for byte:
//  - each client tool's generation result (every diagnostic's severity,
//    code and message in order, whether artifacts were produced, and an
//    FNV-1a of their rendered code), stock and with the paper's remedies,
//    over the policy-matrix descriptions and every pair of their features,
//    the served 2% corpus and every mutant of the fuzz campaign's base
//    descriptions;
//  - the static predictor's verdict for every client over the same inputs,
//    plus one description extending an undefined base;
//  - each server's deploy refusals over both 2% catalogs, stock and strict
//    JBossWS;
//  - the text of the roster tables (Tables I and II, the version matrix).
// The tools_*, server and roster goldens were rendered by the per-framework
// subclasses the policy tables replaced, and the predict_* goldens by the
// hand-written rule registry the predictor no longer has, so never
// regenerate them from the current code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/predict.hpp"
#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "codemodel/render.hpp"
#include "common/hash.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "frameworks/version_policy.hpp"
#include "fuzz/mutation.hpp"
#include "interop/report.hpp"
#include "policy_matrix_cases.hpp"
#include "test_helpers.hpp"
#include "wsdl/writer.hpp"

namespace wsx::frameworks {
namespace {

/// Compares `rendered` with tests/data/`name`; on a difference, writes the
/// rendering next to the test's temporary files for diffing.
void expect_golden(const std::string& name, const std::string& rendered) {
  std::ifstream in(std::string(WSX_TEST_DATA_DIR) + "/" + name);
  std::ostringstream want;
  want << in.rdbuf();
  if (rendered == want.str()) return;
  const std::string path = ::testing::TempDir() + name + ".actual";
  std::ofstream(path) << rendered;
  ADD_FAILURE() << "rendering differs from tests/data/" << name << "; rendered: " << path;
}

/// Every in-tree client tool: Table II's eleven, then the four the paper
/// remedies, with the remedy applied.
struct Tool {
  std::string label;
  std::unique_ptr<ClientFramework> client;
};
std::vector<Tool> all_tools() {
  std::vector<Tool> tools;
  for (auto& client : make_clients()) {
    std::string label = client->name();
    tools.push_back({std::move(label), std::move(client)});
  }
  for (auto& client : testing::remedied_clients()) {
    std::string label = client->name() + " [remedied]";
    tools.push_back({std::move(label), std::move(client)});
  }
  return tools;
}

/// A labelled served description.
struct Input {
  std::string label;
  std::string text;
};

/// Every tool's result on every input. The tools are numbered once at the
/// top, and each distinct diagnostic where it first appears ("d<n>
/// [severity] code: message"). Per input, a results line then lists, tool
/// by tool, '+' or '-' for artifacts produced or not and the numbers of its
/// diagnostics in order, and an artifacts line folds every produced
/// artifact's FNV-1a of code::render, tool by tool. A description that
/// does not parse prints its parse error once, and the diagnostics quote it
/// as "<parse error>".
std::string render_all(const std::vector<Input>& inputs) {
  const std::vector<Tool> tools = all_tools();
  std::string out;
  for (std::size_t i = 0; i < tools.size(); ++i) {
    out += "tool " + std::to_string(i) + ": " + tools[i].label + "\n";
  }
  std::map<std::string, std::size_t> legend;
  for (const Input& input : inputs) {
    out += "== " + input.label + "\n";
    const SharedDescription description = SharedDescription::from_text(input.text);
    std::string parse_error;
    if (!description.parsed_ok()) {
      parse_error = description.parse_error().message;
      out += "does not parse: " + parse_error + "\n";
    }
    std::string results = "results:";
    std::uint64_t artifacts = kFnvOffsetBasis;
    for (const Tool& tool : tools) {
      const GenerationResult result = tool.client->generate(description);
      if (result.produced_artifacts()) {
        results += " +";
        artifacts = fnv1a(hex16(fnv1a(code::render(*result.artifacts), kFnvOffsetBasis)),
                          artifacts);
      } else {
        results += " -";
      }
      const char* separator = "";
      for (const Diagnostic& diagnostic : result.diagnostics.diagnostics()) {
        const bool quotes_parse_error =
            !parse_error.empty() && diagnostic.message == parse_error;
        const std::string line = "[" + std::string(to_string(diagnostic.severity)) + "] " +
                                 diagnostic.code + ": " +
                                 (quotes_parse_error ? "<parse error>" : diagnostic.message);
        const auto [entry, added] = legend.emplace(line, legend.size() + 1);
        if (added) out += "d" + std::to_string(entry->second) + " " + line + "\n";
        results += separator + std::to_string(entry->second);
        separator = ",";
      }
    }
    out += results + "\nartifacts: " + hex16(artifacts) + "\n";
  }
  return out;
}

/// Every service the three servers deploy from the 2% catalogs, in corpus
/// order (testing::served_corpus, labelled).
std::vector<Input> corpus_inputs() {
  const catalog::TypeCatalog java =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, 2));
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(catalog::scaled(catalog::DotNetCatalogSpec{}, 2));
  std::vector<Input> inputs;
  for (const auto& server : make_servers()) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    for (const ServiceSpec& spec : make_services(types)) {
      Result<DeployedService> service = server->deploy(spec);
      if (!service.ok()) continue;
      inputs.push_back({server->name() + "/" + spec.service_name(),
                        std::move(service->wsdl_text)});
    }
  }
  return inputs;
}

/// Every mutant of the fuzz campaign's base descriptions: the first three
/// plain deployable types of each server's full catalog
/// (fuzz::run_fuzz_campaign at its default corpus size).
std::vector<Input> mutant_inputs() {
  const catalog::TypeCatalog java = catalog::make_java_catalog();
  const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog();
  const std::uint64_t plain = static_cast<std::uint64_t>(catalog::Trait::kDefaultCtor) |
                              static_cast<std::uint64_t>(catalog::Trait::kSerializable);
  std::vector<Input> inputs;
  for (const auto& server : make_servers()) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    std::size_t bases = 0;
    for (const catalog::TypeInfo& type : types.types()) {
      if (bases >= 3) break;
      if (type.traits != plain || !server->can_deploy(type)) continue;
      Result<DeployedService> service = server->deploy(ServiceSpec{&type});
      if (!service.ok()) continue;
      ++bases;
      for (const fuzz::Mutant& mutant : fuzz::mutate_all(service->wsdl_text)) {
        inputs.push_back({server->name() + "/" + type.name + " " + fuzz::to_string(mutant.kind),
                          mutant.wsdl_text});
      }
    }
  }
  return inputs;
}

/// One description per policy-matrix feature.
std::vector<Input> matrix_inputs() {
  std::vector<Input> inputs;
  for (const testing::FeatureCase& feature : testing::kPolicyMatrixCases) {
    wsdl::Definitions defs = testing::compliant_echo_definitions();
    feature.inject(defs);
    inputs.push_back({feature.name, wsdl::to_string(defs)});
  }
  return inputs;
}

/// Every pair of matrix features in one description, so that several rules
/// of a tool fire together: their order, and whether a rule ends
/// generation, show. Clearing the operations goes last, since the other
/// injections edit the first operation, message or element.
std::vector<Input> matrix_pair_inputs() {
  std::vector<Input> inputs;
  const auto& cases = testing::kPolicyMatrixCases;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    for (std::size_t j = i + 1; j < std::size(cases); ++j) {
      const bool clears_first = cases[i].inject == testing::zero_operations;
      const testing::FeatureCase& first = clears_first ? cases[j] : cases[i];
      const testing::FeatureCase& second = clears_first ? cases[i] : cases[j];
      wsdl::Definitions defs = testing::compliant_echo_definitions();
      first.inject(defs);
      second.inject(defs);
      inputs.push_back({std::string(first.name) + " + " + second.name, wsdl::to_string(defs)});
    }
  }
  return inputs;
}

TEST(ToolGolden, PolicyMatrixDescriptions) {
  const std::vector<Input> inputs = matrix_inputs();
  ASSERT_EQ(inputs.size(), 16u);
  expect_golden("tools_policy_matrix.golden", render_all(inputs));
}

TEST(ToolGolden, PolicyMatrixFeaturePairs) {
  const std::vector<Input> inputs = matrix_pair_inputs();
  ASSERT_EQ(inputs.size(), 120u);
  expect_golden("tools_policy_matrix_pairs.golden", render_all(inputs));
}

TEST(ToolGolden, ServedCorpusAtTwoPercent) {
  const std::vector<Input> inputs = corpus_inputs();
  ASSERT_EQ(inputs.size(), 182u);
  expect_golden("tools_corpus_scale2.golden", render_all(inputs));
}

TEST(ToolGolden, FuzzCampaignMutants) {
  expect_golden("tools_fuzz_mutants.golden", render_all(mutant_inputs()));
}

/// A step's flags as two characters: 'w' or '-' for the warning, 'e' or
/// '-' for the error.
std::string flag_pair(const analysis::predict::StepPrediction& step) {
  return std::string(1, step.warning ? 'w' : '-') + (step.error ? 'e' : '-');
}

std::string joined(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : ",") + item;
  return out;
}

/// Every client's predicted verdict on every input. The clients are
/// numbered once at the top, and each distinct verdict where it first
/// appears ("v<n> gen <we> comp <we> ..." with the artifacts flag, whether
/// the client compiles, and each step's mechanisms). Per input, the
/// description's fingerprint and a verdicts line listing, client by
/// client, the number of its verdict.
std::string render_predictions(const std::vector<Input>& inputs) {
  const auto clients = make_clients();
  std::string out;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    out += "client " + std::to_string(i) + ": " + clients[i]->name() + "\n";
  }
  std::map<std::string, std::size_t> legend;
  for (const Input& input : inputs) {
    const analysis::predict::ServicePrediction prediction =
        analysis::predict::predict_service(SharedDescription::from_text(input.text));
    out += "== " + input.label + "\nfingerprint " + prediction.fingerprint + "\n";
    std::string verdicts = "verdicts:";
    EXPECT_EQ(prediction.clients.size(), clients.size()) << input.label;
    for (std::size_t i = 0; i < prediction.clients.size(); ++i) {
      const analysis::predict::ClientPrediction& client = prediction.clients[i];
      if (i < clients.size()) {
        EXPECT_EQ(client.client, clients[i]->name()) << input.label;
      }
      const std::string line =
          "gen " + flag_pair(client.generation) + " comp " + flag_pair(client.compilation) +
          (client.artifacts ? " artifacts" : " no-artifacts") +
          (client.compiled ? " compiled" : " dynamic") + " [" +
          joined(client.generation.mechanisms) + "] [" + joined(client.compilation.mechanisms) +
          "]";
      const auto [entry, added] = legend.emplace(line, legend.size() + 1);
      if (added) out += "v" + std::to_string(entry->second) + " " + line + "\n";
      verdicts += " " + std::to_string(entry->second);
    }
    out += verdicts + "\n";
  }
  return out;
}

TEST(PredictGolden, PolicyMatrixDescriptions) {
  const std::vector<Input> inputs = matrix_inputs();
  ASSERT_EQ(inputs.size(), 16u);
  expect_golden("predict_policy_matrix.golden", render_predictions(inputs));
}

TEST(PredictGolden, PolicyMatrixFeaturePairs) {
  const std::vector<Input> inputs = matrix_pair_inputs();
  ASSERT_EQ(inputs.size(), 120u);
  expect_golden("predict_policy_matrix_pairs.golden", render_predictions(inputs));
}

TEST(PredictGolden, ServedCorpusAtTwoPercent) {
  const std::vector<Input> inputs = corpus_inputs();
  ASSERT_EQ(inputs.size(), 182u);
  expect_golden("predict_corpus_scale2.golden", render_predictions(inputs));
}

TEST(PredictGolden, FuzzCampaignMutants) {
  const std::vector<Input> inputs = mutant_inputs();
  ASSERT_EQ(inputs.size(), 144u);
  expect_golden("predict_fuzz_mutants.golden", render_predictions(inputs));
}

TEST(PredictGolden, UndefinedExtensionBase) {
  // No corpus service or mutant derives from a type the description lacks,
  // so this one pins the unknown-base mechanism: the compliant echo's
  // Payload extends an undeclared tns:Missing.
  wsdl::Definitions defs = testing::compliant_echo_definitions();
  defs.schemas.front().complex_types.front().base = xml::QName{"urn:echo", "Missing", "tns"};
  expect_golden("predict_unknown_base.golden",
                render_predictions({{"undefined-extension-base", wsdl::to_string(defs)}}));
}

/// `text` with every occurrence of `name` replaced by `placeholder`.
std::string templated(std::string text, const std::string& name, std::string_view placeholder) {
  for (std::size_t at = text.find(name); at != std::string::npos;
       at = text.find(name, at + placeholder.size())) {
    text.replace(at, name.size(), placeholder);
  }
  return text;
}

TEST(ServerGolden, DeployRefusalsOverBothCatalogs) {
  // Per server and catalog: how many services deploy and an FNV-1a of their
  // served text, then each distinct refusal with the type's qualified name
  // and the service name in its message read as {type} and {service}, the
  // number of types refused so, and an FNV-1a of their names in order.
  const catalog::TypeCatalog java =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, 2));
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(catalog::scaled(catalog::DotNetCatalogSpec{}, 2));
  std::vector<std::unique_ptr<ServerFramework>> servers = make_servers();
  servers.push_back(testing::strict_jbossws());
  std::string out;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const ServerFramework& server = *servers[i];
    for (const catalog::TypeCatalog* types : {&java, &dotnet}) {
      std::size_t deployed = 0;
      std::uint64_t served = kFnvOffsetBasis;
      struct Refusal {
        std::size_t types = 0;
        std::uint64_t names = kFnvOffsetBasis;
      };
      std::vector<std::pair<std::string, Refusal>> refusals;
      for (const ServiceSpec& spec : make_services(*types)) {
        const Result<DeployedService> service = server.deploy(spec);
        if (service.ok()) {
          ++deployed;
          served = fnv1a(service->wsdl_text, served);
          continue;
        }
        const std::string qualified = spec.type->qualified_name();
        const std::string key =
            service.error().code + ": " +
            templated(templated(service.error().message, qualified, "{type}"),
                      spec.service_name(), "{service}");
        auto it = std::find_if(refusals.begin(), refusals.end(),
                               [&key](const auto& entry) { return entry.first == key; });
        if (it == refusals.end()) it = refusals.insert(refusals.end(), {key, Refusal{}});
        ++it->second.types;
        it->second.names = fnv1a(qualified + "\n", it->second.names);
      }
      out += "== " + server.name() + (i == 3 ? " [strict]" : "") + " over " +
             catalog::to_string(types->types().front().language) + ": " +
             std::to_string(deployed) + " deployed, served text " + hex16(served) + "\n";
      for (const auto& [key, refusal] : refusals) {
        out += key + " | " + std::to_string(refusal.types) + " types, names " +
               hex16(refusal.names) + "\n";
      }
    }
  }
  expect_golden("server_refusals_scale2.golden", out);
}

TEST(RosterGolden, TablesAndVersionMatrix) {
  expect_golden("roster_tables.golden", interop::format_table1() + "\n" +
                                            interop::format_table2() + "\n" +
                                            format_version_policy_matrix());
}

}  // namespace
}  // namespace wsx::frameworks
