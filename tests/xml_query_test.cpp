// Unit tests for namespace scoping and tree queries (src/xml/query.*).
#include <gtest/gtest.h>

#include "xml/parser.hpp"
#include "xml/query.hpp"

namespace wsx::xml {
namespace {

Element parsed(std::string_view text) {
  Result<Element> root = parse_element(text);
  EXPECT_TRUE(root.ok()) << text;
  return root.value();
}

TEST(NamespaceScope, XmlPrefixIsPredeclared) {
  NamespaceScope scope;
  ASSERT_NE(scope.find_prefix("xml"), nullptr);
  EXPECT_EQ(*scope.find_prefix("xml"), ns::kXmlNs);
}

TEST(NamespaceScope, ResolvesDeclaredPrefix) {
  Element root = parsed(R"(<a xmlns:p="urn:x"/>)");
  NamespaceScope scope;
  scope.push(root);
  ASSERT_NE(scope.find_prefix("p"), nullptr);
  EXPECT_EQ(*scope.find_prefix("p"), "urn:x");
  EXPECT_EQ(scope.find_prefix("q"), nullptr);
}

TEST(NamespaceScope, InnerDeclarationShadowsOuter) {
  NamespaceScope scope;
  Element outer = parsed(R"(<a xmlns:p="urn:outer"/>)");
  Element inner = parsed(R"(<b xmlns:p="urn:inner"/>)");
  scope.push(outer);
  scope.push(inner);
  ASSERT_NE(scope.find_prefix("p"), nullptr);
  EXPECT_EQ(*scope.find_prefix("p"), "urn:inner");
  scope.pop();
  ASSERT_NE(scope.find_prefix("p"), nullptr);
  EXPECT_EQ(*scope.find_prefix("p"), "urn:outer");
}

TEST(NamespaceScope, DefaultNamespaceAppliesToElementsOnly) {
  Element root = parsed(R"(<a xmlns="urn:default"/>)");
  NamespaceScope scope;
  scope.push(root);
  std::optional<QName> with_default = scope.resolve("name", /*use_default_ns=*/true);
  ASSERT_TRUE(with_default.has_value());
  EXPECT_EQ(with_default->namespace_uri(), "urn:default");
  std::optional<QName> without_default = scope.resolve("name", /*use_default_ns=*/false);
  ASSERT_TRUE(without_default.has_value());
  EXPECT_EQ(without_default->namespace_uri(), "");
}

TEST(NamespaceScope, UndeclaredPrefixYieldsNullopt) {
  NamespaceScope scope;
  EXPECT_FALSE(scope.resolve("wsa:EndpointReference").has_value());
}

TEST(Walk, VisitsEveryElementWithScope) {
  Element root = parsed(R"(<a xmlns:p="urn:x"><p:b/><c><p:d/></c></a>)");
  std::size_t visited = 0;
  std::size_t in_urn_x = 0;
  walk(root, [&](const Element& element, const NamespaceScope& scope) {
    ++visited;
    std::optional<QName> name = scope.resolve(element.name());
    if (name && name->namespace_uri() == "urn:x") ++in_urn_x;
  });
  EXPECT_EQ(visited, 4u);
  EXPECT_EQ(in_urn_x, 2u);
}

TEST(FindAll, MatchesByResolvedQName) {
  Element root = parsed(
      R"(<w:definitions xmlns:w="http://schemas.xmlsoap.org/wsdl/">
           <w:message/><w:message/><other/>
         </w:definitions>)");
  const std::vector<const Element*> messages =
      find_all(root, QName{std::string(ns::kWsdl), "message"});
  EXPECT_EQ(messages.size(), 2u);
}

TEST(FindAll, RespectsRedeclaredPrefixes) {
  Element root = parsed(
      R"(<a xmlns:p="urn:one"><p:x/><b xmlns:p="urn:two"><p:x/></b></a>)");
  EXPECT_EQ(find_all(root, QName{"urn:one", "x"}).size(), 1u);
  EXPECT_EQ(find_all(root, QName{"urn:two", "x"}).size(), 1u);
}

TEST(FindFirst, ReturnsNullWhenAbsent) {
  Element root = parsed("<a/>");
  EXPECT_EQ(find_first(root, QName{"urn:x", "y"}), nullptr);
}

TEST(ResolveStartTag, FollowsNamespaceScopeOnTheTagAlone) {
  // Each tag probes one rule of NamespaceScope::resolve for a scope that
  // holds only the tag's own declarations.
  const std::vector<std::string> tags = {
      "<a/>",
      R"(<a xmlns="urn:d"/>)",
      R"(<a xmlns=""/>)",
      "<:a/>",
      R"(<:a xmlns="urn:d"/>)",
      R"(<:a xmlns:="urn:d"/>)",
      "<xml:a/>",
      R"(<xml:a xmlns:xml="urn:rebound"/>)",
      "<p:a/>",
      R"(<p:a xmlns:q="urn:q"/>)",
      R"(<p:a xmlns:p="urn:p" xmlns="urn:d"/>)",
      R"(<a xmlns:="urn:first" xmlns="urn:second"/>)",
      R"(<p:a xmlns:p="urn:&#x70;"/>)",
      "<p:q:a xmlns:p='urn:p'/>",
  };
  for (const std::string& text : tags) {
    pull::Tokenizer tok(text);
    const pull::Token* start = pull::next_root(tok);
    ASSERT_NE(start, nullptr) << text;
    NamespaceScope scope;
    scope.push(*start);
    const std::optional<QName> expected = scope.resolve(start->name);
    const StartTagName got = resolve_start_tag(*start);
    ASSERT_EQ(got.resolved, expected.has_value()) << text;
    if (!expected) continue;
    EXPECT_EQ(got.local, expected->local_name()) << text;
    EXPECT_EQ(got.uri, expected->namespace_uri()) << text;
  }
}

TEST(QNameTest, EqualityIgnoresPrefix) {
  EXPECT_EQ((QName{"urn:x", "a", "p"}), (QName{"urn:x", "a", "q"}));
  EXPECT_NE((QName{"urn:x", "a"}), (QName{"urn:y", "a"}));
  EXPECT_NE((QName{"urn:x", "a"}), (QName{"urn:x", "b"}));
}

TEST(QNameTest, ExpandedAndLexicalForms) {
  const QName name{"urn:x", "local", "p"};
  EXPECT_EQ(name.expanded(), "{urn:x}local");
  EXPECT_EQ(name.lexical(), "p:local");
  EXPECT_EQ((QName{"", "bare"}).expanded(), "bare");
  EXPECT_EQ((QName{"", "bare"}).lexical(), "bare");
}

TEST(QNameTest, HashConsistentWithEquality) {
  const std::hash<QName> hasher;
  EXPECT_EQ(hasher(QName{"urn:x", "a", "p"}), hasher(QName{"urn:x", "a", "q"}));
}

TEST(ElementApi, ChildHelpersMatchLocalNames) {
  Element root = parsed(R"(<a xmlns:p="urn:x"><p:b/><b/><c/></a>)");
  EXPECT_EQ(root.children_named("b").size(), 2u);  // matches prefixed and not
  EXPECT_EQ(root.child_elements().size(), 3u);
  EXPECT_NE(root.child("c"), nullptr);
}

TEST(ElementApi, SetAttributeReplacesExisting) {
  Element element{"a"};
  element.set_attribute("k", "1");
  element.set_attribute("k", "2");
  EXPECT_EQ(element.attributes().size(), 1u);
  EXPECT_EQ(element.attribute("k"), "2");
}

TEST(ElementApi, RemoveChildByLocalName) {
  Element root = parsed("<a><b/><w:b xmlns:w=\"urn:w\"/><c/></a>");
  EXPECT_TRUE(root.remove_child("b"));         // removes the first match
  EXPECT_EQ(root.children_named("b").size(), 1u);
  EXPECT_TRUE(root.remove_child("b"));
  EXPECT_FALSE(root.remove_child("b"));
  EXPECT_NE(root.child("c"), nullptr);
}

TEST(ElementApi, RemoveAttribute) {
  Element element{"a"};
  element.set_attribute("x", "1");
  EXPECT_TRUE(element.remove_attribute("x"));
  EXPECT_FALSE(element.remove_attribute("x"));
  EXPECT_FALSE(element.has_attribute("x"));
}

TEST(ElementApi, PrependChildGoesFirst) {
  Element root = parsed("<a><b/></a>");
  root.prepend_child(Element{"first"});
  EXPECT_EQ(root.child_elements().front()->name(), "first");
}

TEST(FindDescendant, MutableSearchFindsSelfAndDeep) {
  Element root = parsed("<a><b><c target=\"yes\"/></b></a>");
  Element* found = find_descendant(
      root, [](const Element& e) { return e.has_attribute("target"); });
  ASSERT_NE(found, nullptr);
  found->set_attribute("target", "edited");
  EXPECT_NE(find_descendant(root, [](const Element& e) {
              return e.attribute("target") == "edited";
            }),
            nullptr);
  EXPECT_EQ(find_descendant(root, [](const Element& e) { return e.name() == "zzz"; }),
            nullptr);
  // Self is included.
  EXPECT_EQ(find_descendant(root, [](const Element& e) { return e.name() == "a"; }), &root);
}

TEST(ElementApi, LocalNameAndPrefix) {
  Element element{"soap:binding"};
  EXPECT_EQ(element.local_name(), "binding");
  EXPECT_EQ(element.prefix(), "soap");
  Element bare{"binding"};
  EXPECT_EQ(bare.local_name(), "binding");
  EXPECT_EQ(bare.prefix(), "");
}

}  // namespace
}  // namespace wsx::xml
