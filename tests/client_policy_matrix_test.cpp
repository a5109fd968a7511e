// The client tolerance matrix, exhaustively: one synthetic description per
// feature, every client tool, and the expected reaction (Error / Warning /
// Silent) for each. This pins the complete behavioural model that DESIGN.md
// §3 derives from the paper — any policy regression fails exactly one cell.
#include <gtest/gtest.h>

#include "frameworks/registry.hpp"
#include "policy_matrix_cases.hpp"
#include "test_helpers.hpp"
#include "wsdl/writer.hpp"

namespace wsx::frameworks {
namespace {

using testing::compliant_echo_definitions;
using testing::FeatureCase;

class PolicyMatrix : public ::testing::TestWithParam<FeatureCase> {};

TEST_P(PolicyMatrix, EveryClientReactsAsModeled) {
  const FeatureCase& feature = GetParam();
  wsdl::Definitions defs = compliant_echo_definitions();
  feature.inject(defs);
  const std::string text = wsdl::to_string(defs);

  const auto clients = make_clients();
  ASSERT_EQ(clients.size(), 11u);
  ASSERT_EQ(std::string(feature.expected).size(), 11u);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const GenerationResult result = clients[i]->generate(text);
    char reaction = 'S';
    if (result.diagnostics.has_errors()) {
      reaction = 'E';
    } else if (result.diagnostics.has_warnings()) {
      reaction = 'W';
    }
    EXPECT_EQ(reaction, feature.expected[i])
        << feature.name << " / " << clients[i]->name();
  }
}

TEST_P(PolicyMatrix, BaselineIsCleanForEveryClient) {
  // Sanity: without the injection, every client consumes the description
  // silently — so each matrix cell isolates exactly one feature.
  const std::string text = wsdl::to_string(compliant_echo_definitions());
  for (const auto& client : make_clients()) {
    const GenerationResult result = client->generate(text);
    EXPECT_FALSE(result.diagnostics.has_errors()) << client->name();
    EXPECT_FALSE(result.diagnostics.has_warnings()) << client->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Features, PolicyMatrix,
                         ::testing::ValuesIn(testing::kPolicyMatrixCases),
                         [](const ::testing::TestParamInfo<FeatureCase>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace wsx::frameworks
