// Unit tests for the shared string utilities (src/common/strings.*).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace wsx {
namespace {

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("wsdl:definitions", "wsdl:"));
  EXPECT_FALSE(starts_with("wsdl", "wsdl:"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(Strings, EndsWith) {
  EXPECT_TRUE(ends_with("TimeoutException", "Exception"));
  EXPECT_FALSE(ends_with("Exception", "TimeoutException"));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Strings, SplitBasic) {
  const std::vector<std::string> parts = split("a:b:c", ':');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const std::vector<std::string> parts = split(":a::", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoSeparator) {
  const std::vector<std::string> parts = split("abc", ':');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"java", "util", "List"};
  EXPECT_EQ(join(parts, "."), "java.util.List");
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, TrimRemovesXmlWhitespace) {
  EXPECT_EQ(trim("  \t\r\n x \n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("DataTable"), "datatable");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, IequalsMatchesVbIdentifierRules) {
  EXPECT_TRUE(iequals("Value", "value"));
  EXPECT_TRUE(iequals("TEXT", "text"));
  EXPECT_FALSE(iequals("value", "values"));
  EXPECT_FALSE(iequals("", "x"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, IequalsFoldsAsciiOnly) {
  // iequals folds the way std::tolower does in the "C" locale, which the
  // library never leaves: A-Z onto a-z and no other byte.
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const char x = static_cast<char>(a);
      const char y = static_cast<char>(b);
      ASSERT_EQ(iequals(std::string_view(&x, 1), std::string_view(&y, 1)),
                std::tolower(a) == std::tolower(b))
          << a << " " << b;
    }
  }
}

TEST(Strings, Capitalize) {
  EXPECT_EQ(capitalize("message"), "Message");
  EXPECT_EQ(capitalize(""), "");
  EXPECT_EQ(capitalize("X"), "X");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

TEST(Strings, ParseCountAcceptsEveryValueUpToSizeMax) {
  std::size_t out = 7;
  ASSERT_TRUE(parse_count("0", out));
  EXPECT_EQ(out, 0u);
  ASSERT_TRUE(parse_count("0042", out));
  EXPECT_EQ(out, 42u);
  ASSERT_TRUE(parse_count("18446744073709551615", out));
  EXPECT_EQ(out, std::numeric_limits<std::size_t>::max());
}

TEST(Strings, ParseCountRejectsOverflowSignsAndJunk) {
  for (const char* text : {"18446744073709551616", "18446744073709551617", "99999999999999999999",
                           "", "-1", "+1", "1x", " 1", "1 ", "0x10"}) {
    std::size_t out = 7;
    EXPECT_FALSE(parse_count(text, out)) << '"' << text << '"';
    EXPECT_EQ(out, 7u) << '"' << text << '"';
  }
}

TEST(Strings, NameColumnFitsTheLongestNameAndAGutter) {
  struct Cell {
    std::string client;
  };
  const std::vector<Cell> cells = {{"Zend Framework 1.9"},
                                   {".NET Framework 4.0.30319.17929 (Visual Basic .NET)"}};
  EXPECT_EQ(name_column_width("client", cells, &Cell::client), 52);
  EXPECT_EQ(name_column_width("client", std::vector<Cell>{}, &Cell::client), 8);
  const std::vector<std::string> names = {"a", "abc"};
  EXPECT_EQ(name_column_width("", names, [](const std::string& name) { return name; }), 5);
  EXPECT_EQ(name_column_width("Framework", names, [](const std::string& name) { return name; }),
            11);
}

}  // namespace
}  // namespace wsx
