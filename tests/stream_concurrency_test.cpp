// Thread-safety of the streaming envelope path (runs under TSan via the
// tier1-concurrency label): tokenizers and their arenas are
// per-parse-local, so parallel envelope parsing and validation across a
// worker pool must be race-free and must produce exactly the sequential
// results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/pool.hpp"
#include "soap/envelope.hpp"
#include "soap/message.hpp"
#include "soap/validate.hpp"
#include "test_helpers.hpp"

namespace wsx {
namespace {

std::vector<std::string> corpus_texts() {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  std::vector<std::string> texts;
  for (int i = 0; i < 64; ++i) {
    Result<soap::Envelope> request = soap::build_request(
        defs, "echo", {{"arg0", "payload-" + std::to_string(i) + " & <more>"}});
    texts.push_back(soap::write(*request));
  }
  // A few rejects in the mix so error paths run concurrently too.
  texts.push_back("<root/>");
  texts.push_back("<a><b></a>");
  texts.push_back("");
  texts.push_back(soap::write(soap::Envelope::make_fault(
      soap::Fault{"soap:Server", "concurrent boom", "d"})));
  return texts;
}

/// Digest of one text: parse verdict + serialized model + sniffer verdict.
std::string digest(const wsdl::Definitions& defs, const std::string& text) {
  Result<soap::Envelope> envelope = soap::parse(text);
  std::string out = envelope.ok() ? "ok:" + soap::write(*envelope)
                                  : "err:" + envelope.error().code;
  Result<std::vector<soap::ValidationIssue>> issues =
      soap::validate_request_text(defs, text);
  if (issues.ok()) {
    out += "|issues:";
    for (const soap::ValidationIssue& issue : issues.value()) out += issue.code + ",";
  } else {
    out += "|" + issues.error().code;
  }
  return out;
}

TEST(StreamConcurrency, ParallelParsingMatchesSequential) {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const std::vector<std::string> texts = corpus_texts();

  std::vector<std::string> sequential;
  for (const std::string& text : texts) sequential.push_back(digest(defs, text));

  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<std::string>> slices = parallel_slices(
        texts.size(), 8, [&](std::size_t begin, std::size_t end) {
          std::vector<std::string> out;
          for (std::size_t i = begin; i < end; ++i) out.push_back(digest(defs, texts[i]));
          return out;
        });
    std::vector<std::string> parallel;
    for (std::vector<std::string>& slice : slices) {
      for (std::string& one : slice) parallel.push_back(std::move(one));
    }
    ASSERT_EQ(parallel, sequential) << "round " << round;
  }
}

}  // namespace
}  // namespace wsx
