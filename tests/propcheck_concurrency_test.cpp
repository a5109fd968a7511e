// Concurrency coverage for the propcheck campaign: corpus generation and
// the corpus replay both fan out across worker threads, and the report
// must be byte-identical at any worker count — the determinism guarantee
// TSan exercises for data races in the shared description/corpus reads.
#include <gtest/gtest.h>

#include <string>

#include "gen/campaign.hpp"

namespace wsx::gen {
namespace {

GenConfig tiny_gen(std::size_t jobs) {
  GenConfig config;
  config.java_spec.plain_beans = 4;
  config.java_spec.throwable_clean = 1;
  config.java_spec.abstract_classes = 1;
  config.dotnet_spec.plain_types = 4;
  config.dotnet_spec.dataset_plain = 1;
  config.corpus.cases_per_operation = 2;
  config.jobs = jobs;
  return config;
}

TEST(PropcheckConcurrency, WorkerCountDoesNotChangeTheReport) {
  const std::string single = propcheck_json(run_propcheck(tiny_gen(1)));
  const std::string parallel = propcheck_json(run_propcheck(tiny_gen(8)));
  EXPECT_EQ(single, parallel);
}

}  // namespace
}  // namespace wsx::gen
