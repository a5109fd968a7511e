// Property tests for the canonical shape fingerprint
// (src/analysis/fingerprint.*): the digest must be invariant under
// namespace-prefix renaming, insignificant reordering (attributes,
// top-level declarations) and whitespace/formatting, and must change
// whenever the consumed shape changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "analysis/fingerprint.hpp"
#include "common/hash.hpp"
#include "test_helpers.hpp"
#include "wsdl/parser.hpp"
#include "wsdl/writer.hpp"

namespace wsx::analysis {
namespace {

Fingerprint fingerprint_of_text(const std::string& text) {
  Result<wsdl::Definitions> defs = wsdl::parse(text);
  EXPECT_TRUE(defs.ok()) << (defs.ok() ? "" : defs.error().message);
  return fingerprint(defs.value());
}

TEST(Fingerprint, StableUnderPrefixRenaming) {
  const wsdl::Definitions defs = testing::compliant_echo_definitions();
  const Fingerprint reference = fingerprint_of_text(wsdl::to_string(defs));

  // A deterministic sweep of prefix vocabularies, including the WCF-style
  // "s" schema prefix and deliberately confusing swapped names.
  const std::vector<wsdl::WsdlWriteOptions> renamings = {
      {"w", "sp", "t", "s"},
      {"definitions", "envelope", "target", "schema"},
      {"soap", "wsdl", "xs", "tns"},  // swapped: lexical chaos, same shape
      {"a", "b", "c", "d"},
  };
  for (const wsdl::WsdlWriteOptions& options : renamings) {
    const std::string text = wsdl::to_string(defs, options);
    EXPECT_EQ(fingerprint_of_text(text), reference)
        << "prefixes " << options.wsdl_prefix << "/" << options.schema_prefix;
  }
}

TEST(Fingerprint, StableUnderInsignificantWhitespace) {
  const wsdl::Definitions defs = testing::compliant_echo_definitions();
  const std::string text = wsdl::to_string(defs);
  const Fingerprint reference = fingerprint_of_text(text);

  // Random inter-element whitespace, seeded for reproducibility.
  std::mt19937 rng(20140623);  // the paper's DSN year + month + day
  for (int round = 0; round < 8; ++round) {
    std::string mangled;
    mangled.reserve(text.size() * 2);
    const std::string fillers[] = {"\n", "  ", "\t", "\r\n", "\n\t "};
    for (std::size_t i = 0; i < text.size(); ++i) {
      mangled.push_back(text[i]);
      if (text[i] == '>' && i + 1 < text.size() && text[i + 1] == '<' &&
          rng() % 2 == 0) {
        mangled += fillers[rng() % 5];
      }
    }
    EXPECT_EQ(fingerprint_of_text(mangled), reference) << "round " << round;
  }
}

TEST(Fingerprint, StableUnderDeclarationReordering) {
  wsdl::Definitions defs = testing::compliant_echo_definitions();
  const Fingerprint reference = fingerprint(defs);

  // Top-level declaration order is insignificant to consumers that resolve
  // by QName: shuffle messages and schema type declarations.
  std::mt19937 rng(42);
  for (int round = 0; round < 8; ++round) {
    wsdl::Definitions shuffled = testing::compliant_echo_definitions();
    std::shuffle(shuffled.messages.begin(), shuffled.messages.end(), rng);
    for (xsd::Schema& schema : shuffled.schemas) {
      std::shuffle(schema.elements.begin(), schema.elements.end(), rng);
      std::shuffle(schema.complex_types.begin(), schema.complex_types.end(), rng);
    }
    EXPECT_EQ(fingerprint(shuffled), reference) << "round " << round;
  }
}

TEST(Fingerprint, StableUnderAttributeReordering) {
  const auto with_attributes = [](bool reversed) {
    wsdl::Definitions defs = testing::compliant_echo_definitions();
    xsd::ComplexType& payload = defs.schemas.front().complex_types.front();
    xsd::AttributeDecl id;
    id.name = "id";
    id.type = xsd::qname(xsd::Builtin::kString);
    xsd::AttributeDecl version;
    version.name = "version";
    version.type = xsd::qname(xsd::Builtin::kString);
    payload.attributes.push_back(reversed ? version : id);
    payload.attributes.push_back(reversed ? id : version);
    return defs;
  };
  EXPECT_EQ(fingerprint(with_attributes(false)), fingerprint(with_attributes(true)));
}

TEST(Fingerprint, ExcludesServiceNameAndEndpointAddress) {
  wsdl::Definitions defs = testing::compliant_echo_definitions();
  const Fingerprint reference = fingerprint(defs);
  defs.name = "RenamedDeployment";
  defs.services.front().ports.front().location = "http://other-host:9999/echo";
  EXPECT_EQ(fingerprint(defs), reference);
}

TEST(Fingerprint, ChangesWhenShapeChanges) {
  const wsdl::Definitions base = testing::compliant_echo_definitions();
  const Fingerprint reference = fingerprint(base);

  // Element rename inside a type.
  wsdl::Definitions renamed_field = testing::compliant_echo_definitions();
  std::get<xsd::ElementDecl>(
      renamed_field.schemas.front().complex_types.front().particles.front())
      .name = "other";
  EXPECT_NE(fingerprint(renamed_field).digest, reference.digest);

  // Sequence particle order is shape-significant: two fields swapped must
  // NOT collapse to the same fingerprint.
  const auto two_fields = [](bool reversed) {
    wsdl::Definitions defs = testing::compliant_echo_definitions();
    xsd::ComplexType& payload = defs.schemas.front().complex_types.front();
    xsd::ElementDecl extra;
    extra.name = "second";
    extra.type = xsd::qname(xsd::Builtin::kInt);
    if (reversed) {
      payload.particles.insert(payload.particles.begin(), extra);
    } else {
      payload.particles.push_back(extra);
    }
    return defs;
  };
  EXPECT_NE(fingerprint(two_fields(false)).digest, fingerprint(two_fields(true)).digest);

  // Cardinality is shape: making the field unbounded changes the digest.
  wsdl::Definitions unbounded = testing::compliant_echo_definitions();
  std::get<xsd::ElementDecl>(
      unbounded.schemas.front().complex_types.front().particles.front())
      .max_occurs = xsd::kUnbounded;
  EXPECT_NE(fingerprint(unbounded).digest, reference.digest);

  // A second operation changes the portType shape.
  wsdl::Definitions extra_op = testing::compliant_echo_definitions();
  extra_op.port_types.front().operations.push_back({"echoTwice", "echo", "echoResponse", {}});
  EXPECT_NE(fingerprint(extra_op).digest, reference.digest);
}

TEST(Fingerprint, HexIsSixteenLowercaseDigits) {
  const Fingerprint print = fingerprint(testing::compliant_echo_definitions());
  EXPECT_EQ(print.hex().size(), 16u);
  EXPECT_EQ(print.hex().find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(print.digest, fnv1a(print.canonical, kFnvOffsetBasis));
}

}  // namespace
}  // namespace wsx::analysis
