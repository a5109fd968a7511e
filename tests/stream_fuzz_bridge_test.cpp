// Hostile-input bridge for the streaming envelope path: every wire fault
// the chaos layer can inject and every fuzz mutation operator, applied to
// real framework traffic, must be judged identically by soap::parse and by
// the DOM reader it replaced (testing::parse_envelope_dom, the oracle) —
// same accept/reject verdict, same error code, no crashes. This is the
// sanitizer workhorse for the tokenizer: the suite runs under ASan in CI,
// so any out-of-bounds scan or dangling view in pull.cpp trips here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "chaos/fault.hpp"
#include "chaos/wire.hpp"
#include "frameworks/registry.hpp"
#include "fuzz/mutation.hpp"
#include "soap/envelope.hpp"
#include "soap/message.hpp"
#include "soap/version.hpp"
#include "xml/pull.hpp"
#include "xml/qname.hpp"
#include "test_helpers.hpp"

namespace wsx {
namespace {

/// ok + error code of one envelope reader.
std::string verdict_of(const Result<soap::Envelope>& envelope) {
  return envelope.ok() ? std::string("ok") : envelope.error().code;
}

/// Both paths, plus a raw tokenizer drain (which must never crash and must
/// agree with the DOM about well-formedness).
void expect_same_verdict(const std::string& text, const std::string& label) {
  const std::string stream = verdict_of(soap::parse(text));
  const std::string dom = verdict_of(wsx::testing::parse_envelope_dom(text));
  EXPECT_EQ(stream, dom) << label << "\ninput:\n" << text;

  xml::pull::Tokenizer tok{text};
  Result<bool> wf = xml::pull::drain(tok);
  if (dom.rfind("xml.", 0) == 0) {
    ASSERT_FALSE(wf.ok()) << label;
    EXPECT_EQ(wf.error().code, dom) << label;
  } else {
    EXPECT_TRUE(wf.ok()) << label << " (envelope-level verdict: " << dom << ")";
  }
}

const std::string& clean_body() {
  static const std::string body = [] {
    const frameworks::DeployedService service = wsx::testing::deploy_one(
        "Metro 2.3", catalog::java_names::kXmlGregorianCalendar);
    const auto server = frameworks::make_server("Metro 2.3");
    Result<soap::Envelope> request =
        soap::build_request(service.wsdl, "echo", {{"arg0", "bridge-payload"}});
    const soap::HttpResponse response = server->handle_http(
        service,
        soap::make_soap_request("http://localhost/echo", "", soap::write(*request)));
    return response.body;
  }();
  return body;
}

/// Mixed-version corpus: a genuine SOAP 1.2 envelope, the two hybrid
/// 1.1-with-1.2-era-header profiles, and the raw namespace rewrite the
/// soap12-rewrite chaos fault performs in transit.
std::vector<std::pair<std::string, std::string>> mixed_version_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  Result<soap::Envelope> base = soap::parse(clean_body());
  if (!base.ok()) return corpus;

  soap::Envelope soap12 = *base;
  soap12.set_version(soap::SoapVersion::k12);
  corpus.emplace_back("soap 1.2", soap::write(soap12));

  for (const soap::HybridProfile profile :
       {soap::HybridProfile::kAddressing, soap::HybridProfile::kSecured}) {
    soap::Envelope hybrid = *base;
    soap::apply_hybrid_profile(hybrid, profile, "echo");
    corpus.emplace_back(std::string("hybrid ") + soap::to_string(profile),
                        soap::write(hybrid));
  }

  // The in-transit rewrite (wire.cpp's soap12-rewrite): textual namespace
  // replacement, which unlike set_version leaves everything else 1.1.
  std::string rewritten = clean_body();
  const std::string from(xml::ns::kSoapEnvelope);
  const std::string to(xml::ns::kSoap12Envelope);
  for (std::size_t at = rewritten.find(from); at != std::string::npos;
       at = rewritten.find(from, at + to.size())) {
    rewritten.replace(at, from.size(), to);
  }
  corpus.emplace_back("rewritten namespace", std::move(rewritten));
  return corpus;
}

TEST(StreamFuzzBridge, MixedVersionEnvelopesAgree) {
  const auto corpus = mixed_version_corpus();
  ASSERT_EQ(corpus.size(), 4u);
  for (const auto& [label, body] : corpus) {
    expect_same_verdict(body, label);
    EXPECT_EQ(verdict_of(soap::parse(body)), "ok") << label;
  }
}

TEST(StreamFuzzBridge, DamagedMixedVersionEnvelopesAgree) {
  // Every fault kind (the version-skew kinds included — apply_body_fault
  // passes them through unchanged, which both paths must tolerate) and a
  // truncation sweep over each mixed-version shape.
  for (const auto& [label, body] : mixed_version_corpus()) {
    for (chaos::FaultKind kind : chaos::all_fault_kinds()) {
      for (std::uint64_t salt : {2, 17}) {
        expect_same_verdict(chaos::apply_body_fault(kind, body, salt),
                            label + " under " + chaos::to_string(kind));
      }
    }
    for (std::size_t cut = 0; cut <= body.size(); cut += 11) {
      expect_same_verdict(body.substr(0, cut),
                          label + " cut at " + std::to_string(cut));
    }
  }
}

TEST(StreamFuzzBridge, CleanTrafficAgrees) {
  ASSERT_FALSE(clean_body().empty());
  expect_same_verdict(clean_body(), "clean");
  EXPECT_EQ(verdict_of(soap::parse(clean_body())), "ok");
}

TEST(StreamFuzzBridge, EveryChaosFaultKindAgrees) {
  for (chaos::FaultKind kind : chaos::all_fault_kinds()) {
    for (std::uint64_t salt = 0; salt < 25; ++salt) {
      const std::string damaged = chaos::apply_body_fault(kind, clean_body(), salt);
      expect_same_verdict(damaged, "fault kind " +
                                       std::to_string(static_cast<int>(kind)) +
                                       " salt " + std::to_string(salt));
    }
  }
}

TEST(StreamFuzzBridge, EveryFuzzMutantAgrees) {
  // mutate_all applies every applicable MutationKind (including the
  // text-level operators: entity corruption, mismatched end tag,
  // truncation, duplicated attribute) to the envelope text.
  const std::vector<fuzz::Mutant> mutants = fuzz::mutate_all(clean_body());
  ASSERT_FALSE(mutants.empty());
  for (const fuzz::Mutant& mutant : mutants) {
    expect_same_verdict(mutant.wsdl_text, "mutant " + mutant.description);
  }
}

TEST(StreamFuzzBridge, TruncationAtEveryByteAgrees) {
  // Every prefix of a real envelope: the scanner sees unterminated
  // constructs of every flavour, and both paths must classify each one
  // identically (several short prefixes are valid XML fragments that then
  // fail SOAP framing — those must agree too).
  const std::string& body = clean_body();
  for (std::size_t cut = 0; cut <= body.size(); ++cut) {
    expect_same_verdict(body.substr(0, cut), "cut at " + std::to_string(cut));
  }
}

TEST(StreamFuzzBridge, StackedCorruptionsAgree) {
  // Chaos corruption on top of a fuzz mutant — doubly damaged documents.
  const std::vector<fuzz::Mutant> mutants = fuzz::mutate_all(clean_body());
  for (const fuzz::Mutant& mutant : mutants) {
    for (std::uint64_t salt : {1, 9, 33}) {
      const std::string damaged = chaos::apply_body_fault(
          chaos::FaultKind::kCorruptedByte, mutant.wsdl_text, salt);
      expect_same_verdict(damaged, "stacked " + mutant.description);
    }
  }
}

TEST(StreamFuzzBridge, PathologicalHandWrittenInputs) {
  const std::vector<std::string> inputs = {
      std::string(1, '\0'),
      std::string(200, '<'),
      std::string(200, '&'),
      "<a " + std::string(500, 'x') + "=\"v\"/>",
      "<" + std::string(5000, 'n') + "/>",
      "<a>" + std::string(5000, 't') + "</a>",
      "<a><![CDATA[" + std::string(1000, ']') + "]]></a>",
      "<a>&#xFFFFFFFFFFFFFFFFFF;</a>",
      "<a>&#0;</a>",
      "<a\xFF\xFE/>",
      "\xEF\xBB\xBF\xEF\xBB\xBF<a/>",
      "<?xml?><a/>",
      "<?xml version=\"1.0\" encoding=\"\"?><a/>",
      "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a/>",
  };
  for (const std::string& text : inputs) {
    expect_same_verdict(text, "pathological");
  }
}

}  // namespace
}  // namespace wsx
