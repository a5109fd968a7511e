// Unit tests for Result/Status, Box, DiagnosticSink and the stable hashes
// (src/common/).
#include <gtest/gtest.h>

#include "catalog/name_pool.hpp"
#include "chaos/fault.hpp"
#include "common/box.hpp"
#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "common/result.hpp"
#include "gen/rng.hpp"

namespace wsx {
namespace {

Result<int> parse_positive(int value) {
  if (value <= 0) return Error{"neg", "value must be positive"};
  return value;
}

TEST(Result, HoldsValue) {
  Result<int> result = parse_positive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(*result, 7);
  EXPECT_TRUE(static_cast<bool>(result));
}

TEST(Result, HoldsError) {
  Result<int> result = parse_positive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "neg");
}

TEST(Result, ValueOrFallsBack) {
  EXPECT_EQ(parse_positive(-1).value_or(42), 42);
  EXPECT_EQ(parse_positive(3).value_or(42), 3);
}

TEST(Result, MoveExtractsValue) {
  Result<std::string> result = std::string{"payload"};
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Result, ArrowOperator) {
  Result<std::string> result = std::string{"abc"};
  EXPECT_EQ(result->size(), 3u);
}

TEST(Status, DefaultIsSuccess) {
  Status status;
  EXPECT_TRUE(status.ok());
}

TEST(Status, CarriesError) {
  Status status = Error{"io", "disk full"};
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().message, "disk full");
}

TEST(Box, DefaultIsEmpty) {
  Box<int> box;
  EXPECT_FALSE(box.has_value());
}

TEST(Box, HoldsAndDereferences) {
  Box<int> box{5};
  ASSERT_TRUE(box.has_value());
  EXPECT_EQ(*box, 5);
}

TEST(Box, CopyIsDeep) {
  Box<int> a{1};
  Box<int> b = a;
  *b = 2;
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
}

TEST(Box, CopyAssignIsDeep) {
  Box<std::string> a{std::string{"x"}};
  Box<std::string> b;
  b = a;
  *b += "y";
  EXPECT_EQ(*a, "x");
  EXPECT_EQ(*b, "xy");
}

TEST(Box, EqualityComparesContents) {
  EXPECT_EQ(Box<int>{3}, Box<int>{3});
  EXPECT_FALSE(Box<int>{3} == Box<int>{4});
  EXPECT_EQ(Box<int>{}, Box<int>{});
  EXPECT_FALSE(Box<int>{} == Box<int>{1});
}

TEST(Box, SelfRecursiveStructure) {
  struct Node {
    int value = 0;
    Box<Node> next;
  };
  Node root{1, Box<Node>{Node{2, {}}}};
  Node copy = root;  // deep copy through the Box
  copy.next->value = 99;
  EXPECT_EQ(root.next->value, 2);
}

TEST(Diagnostics, SeverityNames) {
  EXPECT_STREQ(to_string(Severity::kNote), "note");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kError), "error");
  EXPECT_STREQ(to_string(Severity::kCrash), "crash");
}

TEST(DiagnosticSink, StartsEmpty) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  EXPECT_FALSE(sink.has_errors());
  EXPECT_FALSE(sink.has_warnings());
}

TEST(DiagnosticSink, CountsBySeverity) {
  DiagnosticSink sink;
  sink.note("a", "n");
  sink.warn("b", "w");
  sink.warn("c", "w2");
  sink.error("d", "e");
  EXPECT_EQ(sink.count(Severity::kNote), 1u);
  EXPECT_EQ(sink.count(Severity::kWarning), 2u);
  EXPECT_EQ(sink.count(Severity::kError), 1u);
  EXPECT_TRUE(sink.has_errors());
  EXPECT_TRUE(sink.has_warnings());
}

TEST(DiagnosticSink, CrashCountsAsError) {
  DiagnosticSink sink;
  sink.crash("jsc", "131 INTERNAL COMPILER CRASH");
  EXPECT_TRUE(sink.has_errors());
  EXPECT_FALSE(sink.has_warnings());
}

TEST(DiagnosticSink, NotesAreNeitherWarningsNorErrors) {
  DiagnosticSink sink;
  sink.note("zend", "uncommon data structure");
  EXPECT_FALSE(sink.has_errors());
  EXPECT_FALSE(sink.has_warnings());
}

TEST(DiagnosticSink, MergeAppendsAll) {
  DiagnosticSink a;
  a.warn("w", "1");
  DiagnosticSink b;
  b.error("e", "2");
  a.merge(b);
  EXPECT_EQ(a.diagnostics().size(), 2u);
  EXPECT_TRUE(a.has_errors());
}

TEST(DiagnosticSink, PreservesSubject) {
  DiagnosticSink sink;
  sink.error("code", "message", "types.java");
  EXPECT_EQ(sink.diagnostics().front().subject, "types.java");
}

// The values below were taken from the hand-written hash copies that
// common/hash.hpp replaced. They key seeded campaigns and files users keep,
// so a slip of basis, byte order or char signedness must fail here.

std::string every_byte_four_times() {
  std::string bytes;
  for (int i = 0; i < 1024; ++i) bytes.push_back(static_cast<char>(i & 0xFF));
  return bytes;
}

TEST(StableHash, FnvUnderBothBases) {
  const std::string kib = every_byte_four_times();
  EXPECT_EQ(fnv1a("", kFnvOffsetBasis), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a", kFnvOffsetBasis), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(kib, kFnvOffsetBasis), 0x1e5698f9d66e6f25ULL);
  EXPECT_EQ(fnv1a("", kFnvShortBasis), 0x14650fb0739d0383ULL);
  EXPECT_EQ(fnv1a("a", kFnvShortBasis), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(fnv1a(kib, kFnvShortBasis), 0x88cf7baad1c48b83ULL);
  // A running hash folds piece by piece, as the serve cache fingerprint does.
  EXPECT_EQ(fnv1a("|", fnv1a("a", kFnvShortBasis)), fnv1a("a|", kFnvShortBasis));
}

TEST(StableHash, Splitmix64) {
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1ULL << 63), 0x481ec0a212a9f3dbULL);
}

TEST(StableHash, Hex16) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(~0ULL), "ffffffffffffffff");
  EXPECT_EQ(hex16(0x0123456789abcdefULL), "0123456789abcdef");
}

TEST(StableHash, SeededStreams) {
  EXPECT_EQ(chaos::chaos_hash(7, "Metro 2.3|EchoFoo|0"), 0x3c8547936de7cfadULL);
  EXPECT_EQ(chaos::chaos_hash((1ULL << 63) + 5, ""), 0x5a3c185b10a20659ULL);

  gen::Rng generated(7, "gen|EchoFoo|echo|0");
  EXPECT_EQ(generated.next(), 0x8156b2ee6600f304ULL);
  EXPECT_EQ(generated.next(), 0x54aa71390327411eULL);
  EXPECT_EQ(generated.next(), 0xab6ef4c5b0351f71ULL);

  catalog::Rng catalog(42);
  EXPECT_EQ(catalog.next(), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(catalog.next(), 0x28efe333b266f103ULL);
  EXPECT_EQ(catalog.next(), 0x47526757130f9f52ULL);
}

}  // namespace
}  // namespace wsx
