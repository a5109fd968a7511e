// Tests for the generator core (src/gen): the deterministic PRNG, the
// per-type value generators and their round-trip agreement with the XSD
// validators, the pattern-lite engine behind xs:pattern facets, bounded
// recursive instance generation, corpus determinism, and the shrinker's
// invariants (still fails, never larger, locally minimal, terminates).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/request_gen.hpp"
#include "gen/rng.hpp"
#include "gen/shrink.hpp"
#include "gen/value_gen.hpp"
#include "test_helpers.hpp"
#include "xsd/pattern.hpp"
#include "xsd/values.hpp"

namespace wsx::gen {
namespace {

const std::vector<xsd::Builtin>& all_builtins() {
  static const std::vector<xsd::Builtin> types = {
      xsd::Builtin::kString,       xsd::Builtin::kBoolean,
      xsd::Builtin::kByte,         xsd::Builtin::kShort,
      xsd::Builtin::kInt,          xsd::Builtin::kLong,
      xsd::Builtin::kUnsignedByte, xsd::Builtin::kUnsignedShort,
      xsd::Builtin::kUnsignedInt,  xsd::Builtin::kUnsignedLong,
      xsd::Builtin::kFloat,        xsd::Builtin::kDouble,
      xsd::Builtin::kDecimal,      xsd::Builtin::kInteger,
      xsd::Builtin::kDateTime,     xsd::Builtin::kDate,
      xsd::Builtin::kTime,         xsd::Builtin::kDuration,
      xsd::Builtin::kBase64Binary, xsd::Builtin::kHexBinary,
      xsd::Builtin::kAnyUri,       xsd::Builtin::kQNameType,
  };
  return types;
}

// ----------------------------------------------------------------------- rng

TEST(Rng, StreamIdentityDecidesTheSequence) {
  Rng a(7, "gen|S|op|0");
  Rng b(7, "gen|S|op|0");
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentStreamsDiverge) {
  Rng a(7, "gen|S|op|0");
  Rng b(7, "gen|S|op|1");
  bool differs = false;
  for (int i = 0; i < 8 && !differs; ++i) differs = a.next() != b.next();
  EXPECT_TRUE(differs);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7, "gen|S|op|0");
  Rng b(8, "gen|S|op|0");
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowStaysInBoundAndHandlesZero) {
  Rng rng(1, "bounds");
  for (int i = 0; i < 256; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
}

// ------------------------------------------------------------------- values

TEST(ValueGen, EveryEdgeValueIsLexicallyValid) {
  for (const xsd::Builtin type : all_builtins()) {
    for (const std::string& edge : edge_values(type)) {
      EXPECT_TRUE(xsd::is_valid_value(type, edge))
          << xsd::local_name(type) << " edge '" << edge << "'";
    }
  }
}

TEST(ValueGen, GeneratorAndValidatorAgreeOnEveryBuiltin) {
  // The round-trip property: whatever the generator emits, the validator
  // accepts — across many seeds so both edge picks and random members run.
  for (const xsd::Builtin type : all_builtins()) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(seed, xsd::local_name(type));
      const std::string value = generate_value(type, rng);
      EXPECT_TRUE(xsd::is_valid_value(type, value))
          << xsd::local_name(type) << " seed " << seed << " value '" << value << "'";
    }
  }
}

// The builtins whose values take several draws (date, time, dateTime,
// duration, float, double) draw them in one fixed order on every compiler.
// Rendered at seed 7, one stream per builtin.
TEST(ValueGen, MultiDrawValuesArePinned) {
  using B = xsd::Builtin;
  const std::vector<std::pair<B, std::vector<std::string>>> pinned = {
      {B::kDate,
       {"1597-07-28", "3192-11-14", "3254-10-09", "1175-12-17", "3999-12-31",
        "1042-11-11", "3701-02-27", "1351-04-19", "2320-07-07", "3999-12-31",
        "2696-03-14", "1000-01-01", "2024-02-29", "2024-02-29", "2024-02-29",
        "3999-12-31", "2024-02-29", "1282-04-02", "1000-01-01", "1000-01-01"}},
      {B::kTime,
       {"00:28:41.17", "12:30:45.123", "21:37:05", "00:00:00", "12:30:45.123",
        "02:54:02", "09:39:06", "00:00:00", "00:00:00", "00:00:00",
        "06:17:02", "16:58:11", "04:51:20.4", "10:15:04.8", "12:30:45.123",
        "12:30:45.123", "02:27:04", "12:30:45.123", "14:56:42.9", "06:43:53.90"}},
      {B::kDateTime,
       {"2116-05-24T01:14:30.91Z", "2572-08-02T00:16:14Z", "1218-01-01T13:48:40",
        "3818-03-23T20:10:09.2", "1000-01-01T00:00:00", "3999-12-31T23:59:59Z",
        "3999-12-31T23:59:59Z", "2992-05-10T21:44:07", "1811-11-10T17:10:08.814",
        "2333-08-28T19:59:22.056", "1000-01-01T00:00:00", "2514-01-12T14:58:00",
        "2761-01-05T23:38:08Z", "1343-08-20T04:43:30", "3958-01-18T06:48:39.574",
        "3999-12-31T23:59:59Z", "1000-01-01T00:00:00", "1522-09-04T09:34:05",
        "3999-12-31T23:59:59Z", "1000-01-01T00:00:00"}},
      {B::kDuration,
       {"P655D", "P674D", "P187M", "P117D", "PT0S", "P658D", "P31M", "P1Y", "P634M",
        "P172M", "P448M", "-P1D", "PT0S", "PT0S", "PT0S", "P469D", "P401D", "P879M",
        "P643M", "P422M"}},
      {B::kFloat,
       {"1E-5", "INF", "055538.6724", "7", "9", "3.402823e38", "475014.359", "-700942",
        "-0.0", "NaN", "INF", "1.5", "628291e-9", "3.402823e38", "-760824.2", "-INF",
        "NaN", "INF", "-67643.8637", "762.2355"}},
      {B::kDouble,
       {"-0.0", "65391", "-846916.68", "-0.0", "1E-5", "8607", "INF", "-117758.5",
        "-0.0", "728310", "1850e-03", "-INF", "INF", "7", "1E-5", "-INF", "INF",
        "1E-5", "-INF", "-0.0"}},
  };
  for (const auto& [type, want] : pinned) {
    Rng rng(7, "pinned|" + std::string(xsd::local_name(type)));
    std::vector<std::string> values;
    for (std::size_t i = 0; i < want.size(); ++i) values.push_back(generate_value(type, rng));
    EXPECT_EQ(values, want) << xsd::local_name(type);
  }
}

TEST(ValueGen, SabotageEmitsInvalidValuesForConstrainedTypes) {
  for (const xsd::Builtin type : all_builtins()) {
    if (type == xsd::Builtin::kString || type == xsd::Builtin::kAnyUri) continue;
    Rng rng(7, "sabotage");
    const std::string value = sabotage_value(type, rng);
    EXPECT_FALSE(xsd::is_valid_value(type, value))
        << xsd::local_name(type) << " sabotage '" << value << "'";
  }
}

TEST(ValueGen, EnumerationFacetRestrictsTheDraw) {
  xsd::SimpleTypeDecl type;
  type.name = "Level";
  type.base = xsd::qname(xsd::Builtin::kString);
  type.enumeration = {"LOW", "MEDIUM", "HIGH"};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed, "enum");
    const std::string value = generate_value(type, rng);
    EXPECT_TRUE(xsd::is_valid_value(type, value)) << "'" << value << "'";
  }
  Rng rng(7, "enum-sabotage");
  EXPECT_FALSE(xsd::is_valid_value(type, sabotage_value(type, rng)));
}

TEST(ValueGen, LengthFacetsBoundGeneratedStrings) {
  xsd::SimpleTypeDecl type;
  type.name = "Code";
  type.base = xsd::qname(xsd::Builtin::kString);
  type.min_length = 3;
  type.max_length = 5;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed, "len");
    const std::string value = generate_value(type, rng);
    EXPECT_GE(value.size(), 3u) << "'" << value << "'";
    EXPECT_LE(value.size(), 5u) << "'" << value << "'";
    EXPECT_TRUE(xsd::is_valid_value(type, value));
  }
}

TEST(ValueGen, TotalDigitsFacetHolds) {
  xsd::SimpleTypeDecl type;
  type.name = "Pin";
  type.base = xsd::qname(xsd::Builtin::kInt);
  type.total_digits = 3;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed, "digits");
    const std::string value = generate_value(type, rng);
    EXPECT_TRUE(xsd::is_valid_value(type, value)) << "'" << value << "'";
  }
}

TEST(ValueGen, PatternFacetGuidesGeneration) {
  xsd::SimpleTypeDecl type;
  type.name = "Sku";
  type.base = xsd::qname(xsd::Builtin::kString);
  type.pattern = "[A-Z]{2}\\d{3}";
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed, "pattern");
    const std::string value = generate_value(type, rng);
    EXPECT_TRUE(xsd::is_valid_value(type, value)) << "'" << value << "'";
  }
}

// ------------------------------------------------------------- pattern-lite

TEST(PatternLite, LiteralsClassesAndQuantifiers) {
  const auto matches = [](std::string_view pattern, std::string_view value) {
    const std::optional<xsd::Pattern> parsed = xsd::parse_pattern(pattern);
    return parsed.has_value() && xsd::pattern_matches(*parsed, value);
  };
  EXPECT_TRUE(matches("abc", "abc"));
  EXPECT_FALSE(matches("abc", "abd"));
  EXPECT_FALSE(matches("abc", "abcd"));  // anchored both ends, like XSD
  EXPECT_TRUE(matches("[A-Z]{2}\\d{3}", "AB123"));
  EXPECT_FALSE(matches("[A-Z]{2}\\d{3}", "ab123"));
  EXPECT_TRUE(matches("a*b+c?", "bbb"));
  EXPECT_TRUE(matches("a*b+c?", "aabc"));
  EXPECT_FALSE(matches("a*b+c?", "aa"));
  EXPECT_TRUE(matches("[^0-9]+", "abc"));
  EXPECT_FALSE(matches("[^0-9]+", "a1c"));
  EXPECT_TRUE(matches("\\w+\\s\\w+", "one two"));
  EXPECT_TRUE(matches("a{2,}", "aaaa"));
  EXPECT_FALSE(matches("a{2,3}", "aaaa"));
  EXPECT_TRUE(matches(".{3}", "x!z"));
}

TEST(PatternLite, UnsupportedConstructsAreRejectedNotMisparsed) {
  EXPECT_FALSE(xsd::parse_pattern("(ab)+").has_value());
  EXPECT_FALSE(xsd::parse_pattern("a|b").has_value());
  EXPECT_FALSE(xsd::parse_pattern("^a$").has_value());
  EXPECT_FALSE(xsd::parse_pattern("[unterminated").has_value());
  EXPECT_FALSE(xsd::parse_pattern("a{9999999}").has_value());
}

// ------------------------------------------------------- recursive instances

TEST(InstanceGen, RecursionIsDepthBounded) {
  xsd::Schema schema;
  schema.target_namespace = "urn:t";
  xsd::ComplexType node;
  node.name = "Node";
  xsd::ElementDecl value;
  value.name = "value";
  value.type = xsd::qname(xsd::Builtin::kInt);
  node.particles.emplace_back(value);
  xsd::ElementDecl next;
  next.name = "next";
  next.type = xml::QName{"urn:t", "Node"};
  next.min_occurs = 0;
  node.particles.emplace_back(next);
  schema.complex_types.push_back(node);

  Rng rng(7, "instance");
  const xml::Element tree = generate_instance(schema, schema.complex_types.front(),
                                              "root", /*depth=*/3, rng);
  // Count the longest chain of nested "next" elements: never deeper than
  // the requested bound.
  int depth = 0;
  const xml::Element* cursor = &tree;
  while (true) {
    const std::vector<const xml::Element*> nested = cursor->children_named("next");
    if (nested.empty()) break;
    cursor = nested.front();
    ++depth;
  }
  EXPECT_LE(depth, 3);
}

// ----------------------------------------------------------------- corpora

TEST(Corpus, DeterministicAndSeedSensitive) {
  const frameworks::DeployedService service = wsx::testing::deploy_one(
      "Metro 2.3", catalog::java_names::kXmlGregorianCalendar);
  CorpusOptions options;
  options.seed = 7;
  options.cases_per_operation = 4;
  const std::vector<GeneratedCase> first = generate_corpus(service, options);
  const std::vector<GeneratedCase> second = generate_corpus(service, options);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 4u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].case_id, second[i].case_id);
    EXPECT_EQ(render_payload(first[i].payload), render_payload(second[i].payload));
  }

  options.seed = 8;
  const std::vector<GeneratedCase> reseeded = generate_corpus(service, options);
  bool differs = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    differs = differs ||
              render_payload(first[i].payload) != render_payload(reseeded[i].payload);
  }
  EXPECT_TRUE(differs);
}

TEST(Corpus, NeverEmitsTheReservedFaultToken) {
  // "!throw" asks the runtime to simulate a server fault; a schema-valid
  // corpus must never trip it by accident. The catalog outlives the loop:
  // deployed specs point into it.
  const catalog::TypeCatalog catalog =
      catalog::make_java_catalog(wsx::testing::small_java_spec());
  const auto server = frameworks::make_server("Metro 2.3");
  for (const wsx::testing::SeededService& seeded :
       wsx::testing::seeded_corpus(*server, catalog, CorpusOptions{})) {
    for (const GeneratedCase& generated : seeded.corpus) {
      EXPECT_NE(generated.payload.value, "!throw") << generated.case_id;
      for (const soap::Argument& field : generated.payload.fields) {
        EXPECT_NE(field.value, "!throw") << generated.case_id;
      }
    }
  }
}

TEST(Corpus, EveryGeneratedCaseValidates) {
  // The acceptance property at unit scope: validity holds for the whole
  // small-population corpus, structured and scalar cases alike.
  std::size_t checked = 0;
  const catalog::TypeCatalog catalog =
      catalog::make_java_catalog(wsx::testing::small_java_spec());
  const auto server = frameworks::make_server("Metro 2.3");
  for (const wsx::testing::SeededService& seeded :
       wsx::testing::seeded_corpus(*server, catalog, CorpusOptions{})) {
    for (const GeneratedCase& generated : seeded.corpus) {
      const std::optional<std::string> violation =
          validate_case(seeded.service, generated);
      EXPECT_FALSE(violation.has_value()) << generated.case_id << ": " << *violation;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u);
}

// ----------------------------------------------------------------- shrinker

GeneratedCase scalar_case(std::string value) {
  GeneratedCase generated;
  generated.service = "S";
  generated.operation = "echo";
  generated.case_id = "S|echo|0";
  generated.payload.value = std::move(value);
  return generated;
}

TEST(Shrink, FindsTheExactMinimalCounterexample) {
  const CaseFails contains_x = [](const GeneratedCase& candidate) {
    return candidate.payload.value.find('x') != std::string::npos;
  };
  ShrinkStats stats;
  const GeneratedCase minimal =
      shrink_case(scalar_case("large xylophone payload"), contains_x, &stats);
  EXPECT_EQ(minimal.payload.value, "x");
  EXPECT_GT(stats.accepted, 0u);
}

TEST(Shrink, ResultStillFailsAndNeverGrows) {
  const CaseFails long_enough = [](const GeneratedCase& candidate) {
    return candidate.payload.value.size() >= 5;
  };
  const GeneratedCase failing = scalar_case("abcdefghij");
  const GeneratedCase minimal = shrink_case(failing, long_enough);
  EXPECT_TRUE(long_enough(minimal));
  EXPECT_LE(case_size(minimal), case_size(failing));
  EXPECT_EQ(minimal.payload.value.size(), 5u);  // local minimum of the lattice
}

TEST(Shrink, DropsIrrelevantStructuredFields) {
  GeneratedCase generated;
  generated.service = "S";
  generated.operation = "echo";
  generated.case_id = "S|echo|0";
  generated.payload.fields = {{"keep", "bad-value"},
                              {"noise1", "aaaa"},
                              {"noise2", "bbbb"},
                              {"noise3", "cccc"}};
  const CaseFails keep_is_bad = [](const GeneratedCase& candidate) {
    for (const soap::Argument& field : candidate.payload.fields) {
      if (field.name == "keep" && !field.value.empty()) return true;
    }
    return false;
  };
  const GeneratedCase minimal = shrink_case(generated, keep_is_bad);
  ASSERT_EQ(minimal.payload.fields.size(), 1u);
  EXPECT_EQ(minimal.payload.fields.front().name, "keep");
  EXPECT_TRUE(keep_is_bad(minimal));
}

TEST(Shrink, TerminatesOnAlreadyMinimalInput) {
  const CaseFails always = [](const GeneratedCase&) { return true; };
  ShrinkStats stats;
  const GeneratedCase minimal = shrink_case(scalar_case(""), always, &stats);
  EXPECT_TRUE(minimal.payload.value.empty());
  EXPECT_EQ(stats.accepted, 0u);
}

}  // namespace
}  // namespace wsx::gen
