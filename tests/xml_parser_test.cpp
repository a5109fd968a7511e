// Unit tests for the XML parser (src/xml/parser.*).
#include <gtest/gtest.h>

#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace wsx::xml {
namespace {

TEST(XmlParser, ParsesMinimalDocument) {
  Result<Element> root = parse_element("<root/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name(), "root");
  EXPECT_TRUE(root->children().empty());
}

TEST(XmlParser, ParsesAttributes) {
  Result<Element> root = parse_element(R"(<a x="1" y="two"/>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->attribute("x"), "1");
  EXPECT_EQ(root->attribute("y"), "two");
  EXPECT_FALSE(root->attribute("z").has_value());
}

TEST(XmlParser, RejectsDuplicateAttributes) {
  Result<Element> root = parse_element(R"(<a x="1" x="2"/>)");
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.error().code, "xml.duplicate-attr");
}

TEST(XmlParser, ParsesNestedElementsAndText) {
  Result<Element> root = parse_element("<a><b>hello</b><c/></a>");
  ASSERT_TRUE(root.ok());
  ASSERT_NE(root->child("b"), nullptr);
  EXPECT_EQ(root->child("b")->text(), "hello");
  ASSERT_NE(root->child("c"), nullptr);
}

TEST(XmlParser, DecodesBuiltinEntities) {
  Result<Element> root = parse_element("<a>&lt;&gt;&amp;&apos;&quot;</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text(), "<>&'\"");
}

TEST(XmlParser, DecodesNumericCharacterReferences) {
  Result<Element> root = parse_element("<a>&#65;&#x42;</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text(), "AB");
}

TEST(XmlParser, RejectsUnknownEntity) {
  Result<Element> root = parse_element("<a>&nope;</a>");
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.error().code, "xml.unknown-entity");
}

TEST(XmlParser, ParsesCdata) {
  Result<Element> root = parse_element("<a><![CDATA[<raw&stuff>]]></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text(), "<raw&stuff>");
}

TEST(XmlParser, KeepsCommentsWhenRequested) {
  Result<Element> root = parse_element("<a><!--note--><b/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->children().size(), 2u);
}

TEST(XmlParser, RejectsMismatchedTags) {
  Result<Element> root = parse_element("<a><b></a></b>");
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.error().code, "xml.mismatched-tag");
}

TEST(XmlParser, RejectsUnterminatedElement) {
  Result<Element> root = parse_element("<a><b>");
  ASSERT_FALSE(root.ok());
}

TEST(XmlParser, RejectsTrailingContent) {
  Result<Element> root = parse_element("<a/><b/>");
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.error().code, "xml.trailing-content");
}

TEST(XmlParser, SkipsDoctypeAndProcessingInstructions) {
  Result<Element> root =
      parse_element("<?xml version=\"1.0\"?><!DOCTYPE a><?pi data?><a><?inner?></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name(), "a");
}

TEST(XmlParser, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 300; ++i) deep += "</a>";
  Result<Element> root = parse_element(deep);
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.error().code, "xml.too-deep");
}

TEST(XmlParser, DepthLimitAdmitsExactlyMaxDepthOpenElements) {
  const auto nested = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "<a>";
    text += "x";
    for (std::size_t i = 0; i < depth; ++i) text += "</a>";
    return text;
  };
  EXPECT_TRUE(parse_element(nested(pull::kMaxDepth)).ok());
  Result<Element> deeper = parse_element(nested(pull::kMaxDepth + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.error().code, "xml.too-deep");
}

TEST(XmlParser, ReportsLineAndColumn) {
  Result<Element> root = parse_element("<a>\n  <b x=></b>\n</a>");
  ASSERT_FALSE(root.ok());
  EXPECT_NE(root.error().message.find("line 2"), std::string::npos);
}

TEST(XmlParser, SkipsUtf8ByteOrderMark) {
  Result<Element> root = parse_element("\xEF\xBB\xBF<a/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name(), "a");
}

TEST(XmlRoundTrip, WriteThenParsePreservesTree) {
  Element root{"wsdl:definitions"};
  root.declare_namespace("wsdl", "http://schemas.xmlsoap.org/wsdl/");
  root.set_attribute("name", "Echo<Svc>");
  Element& child = root.add_element("wsdl:types");
  child.add_text("a & b");
  const std::string text = write(root);
  Result<Element> reparsed = parse_element(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->name(), "wsdl:definitions");
  EXPECT_EQ(reparsed->attribute("name"), "Echo<Svc>");
  EXPECT_EQ(reparsed->child("types")->text(), "a & b");
}

TEST(XmlWriter, EscapesAttributeQuotes) {
  Element root{"a"};
  root.set_attribute("t", "say \"hi\"");
  const std::string text = write(root);
  EXPECT_NE(text.find("&quot;hi&quot;"), std::string::npos);
  Result<Element> reparsed = parse_element(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->attribute("t"), "say \"hi\"");
}

/// The layout rules of the one serializer, as the DOM writer it replaced
/// laid them out: mixed content one child per line, character-data-only
/// content inline, empty elements self-closed, comments on their own line.
TEST(XmlWriter, LayoutOfMixedContentCdataAndComments) {
  Element root{"r"};
  root.set_attribute("a", "1<2");
  root.add_text("lead & text");
  Element& child = root.add_element("c");
  child.add_cdata("raw <cdata>");
  child.add_text(" tail");
  root.add_comment(" note ");
  root.add_element("empty");
  root.add_element("oc").add_comment("x");
  Element& texts = root.add_element("t");
  texts.add_text("one");
  texts.add_text("");
  texts.add_cdata("two");
  root.add_text("trailing");
  const std::string body =
      "<r a=\"1&lt;2\">\n"
      "  lead &amp; text\n"
      "  <c><![CDATA[raw <cdata>]]> tail</c>\n"
      "  <!-- note -->\n"
      "  <empty/>\n"
      "  <oc>\n"
      "    <!--x-->\n"
      "  </oc>\n"
      "  <t>one<![CDATA[two]]></t>\n"
      "  trailing\n"
      "</r>\n";
  EXPECT_EQ(write(root), "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" + body);

  WriteOptions compact;
  compact.pretty = false;
  EXPECT_EQ(write(root, compact),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r a=\"1&lt;2\">lead &amp; text"
            "<c><![CDATA[raw <cdata>]]> tail</c><!-- note --><empty/><oc><!--x--></oc>"
            "<t>one<![CDATA[two]]></t>trailing</r>");
}

}  // namespace
}  // namespace wsx::xml
