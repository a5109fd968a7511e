// Unit tests for the streaming pull tokenizer (src/xml/pull.*) and the
// arena allocator backing its decoded values (src/common/arena.hpp).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "xml/parser.hpp"
#include "xml/pull.hpp"

namespace wsx::xml::pull {
namespace {

// An owning snapshot of a token, safe to keep across next() calls.
struct Event {
  TokenKind kind;
  std::string name;
  std::string value;
  std::vector<std::pair<std::string, std::string>> attrs;
  bool self_closing = false;

  bool operator==(const Event& other) const = default;
};

Event snapshot(const Token& token) {
  Event event;
  event.kind = token.kind;
  event.name = std::string(token.name);
  event.value = std::string(token.value);
  event.self_closing = token.self_closing;
  for (std::size_t i = 0; i < token.attr_count; ++i) {
    event.attrs.emplace_back(std::string(token.attrs[i].name),
                             std::string(token.attrs[i].value));
  }
  return event;
}

struct PullRun {
  std::vector<Event> events;
  std::string error_code;  // empty when the document tokenized cleanly
  std::string error_message;
};

PullRun run_one_shot(std::string_view text) {
  Tokenizer tok{text};
  PullRun run;
  for (;;) {
    const Token& token = tok.next();
    if (token.kind == TokenKind::kEndDocument) return run;
    if (token.kind == TokenKind::kError) {
      run.error_code = tok.error().code;
      run.error_message = tok.error().message;
      return run;
    }
    run.events.push_back(snapshot(token));
  }
}

/// Copies `text` into the arena and returns a view of the copy.
std::string_view copy_into(common::Arena& arena, std::string_view text) {
  char* out = arena.char_buffer(text.size());
  std::memcpy(out, text.data(), text.size());
  return {out, text.size()};
}

TEST(Arena, AllocationsAreStableAcrossGrowth) {
  common::Arena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 500; ++i) {
    originals.push_back("value-" + std::to_string(i) + std::string(i % 37, 'x'));
  }
  std::size_t total = 0;
  for (const std::string& text : originals) {
    views.push_back(copy_into(arena, text));
    total += text.size();
  }
  // Growth chained several blocks; earlier views must still read back.
  EXPECT_GT(total, common::Arena::kFirstBlockBytes);
  for (std::size_t i = 0; i < views.size(); ++i) EXPECT_EQ(views[i], originals[i]);
}

TEST(Arena, LargeAllocationGetsDedicatedBlock) {
  common::Arena arena;
  const std::string big(common::Arena::kMaxBlockBytes + 17, 'b');
  EXPECT_EQ(copy_into(arena, big), big);
}

TEST(PullTokenizer, EmitsExpectedEventSequence) {
  PullRun run = run_one_shot("<?xml version=\"1.0\"?><a x=\"1\"><b>hi</b><c/></a>");
  ASSERT_TRUE(run.error_code.empty()) << run.error_message;
  std::vector<TokenKind> kinds;
  for (const Event& event : run.events) kinds.push_back(event.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kStartElement, TokenKind::kStartElement,
                       TokenKind::kText, TokenKind::kEndElement,
                       TokenKind::kStartElement, TokenKind::kEndElement,
                       TokenKind::kEndElement}));
  EXPECT_EQ(run.events[0].name, "a");
  EXPECT_EQ(run.events[0].attrs,
            (std::vector<std::pair<std::string, std::string>>{{"x", "1"}}));
  EXPECT_EQ(run.events[2].value, "hi");
  EXPECT_TRUE(run.events[4].self_closing);
  EXPECT_FALSE(run.events[5].self_closing);
  EXPECT_EQ(run.events[5].name, "c");
}

TEST(PullTokenizer, SkipsPrologPseudoAttributes) {
  // The declaration is read past whatever its pseudo-attributes hold:
  // double- or single-quoted, or unquoted.
  const std::vector<std::string> inputs = {
      "<?xml version=\"1.1\" encoding=\"ISO-8859-1\"?><a/>",
      "<?xml version='1.0' encoding=\"UTF-8\"?><a/>",
      "<?xml version=\"1.1\" encoding='ISO-8859-1'?><a/>",
      "<?xml version=1.0 encoding=\"x\"?><a/>",
      "<?xml version=\"1.0\" encoding=UTF-8?><a/>",
  };
  const PullRun bare = run_one_shot("<a/>");
  for (const std::string& text : inputs) {
    const PullRun run = run_one_shot(text);
    EXPECT_EQ(run.error_code, "") << text << ": " << run.error_message;
    EXPECT_EQ(run.events, bare.events) << text;
    EXPECT_TRUE(parse_element(text).ok()) << text;
  }
}

TEST(PullTokenizer, TokensAliasTheInputBuffer) {
  const std::string text = "<root attr=\"plain\">payload</root>";
  Tokenizer tok{text};
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  for (;;) {
    const Token& token = tok.next();
    if (token.kind == TokenKind::kEndDocument) break;
    ASSERT_NE(token.kind, TokenKind::kError);
    if (token.kind == TokenKind::kStartElement) {
      // Zero-copy: no entities anywhere, so every view points into `text`.
      EXPECT_GE(token.name.data(), begin);
      EXPECT_LT(token.name.data(), end);
      for (std::size_t i = 0; i < token.attr_count; ++i) {
        EXPECT_GE(token.attrs[i].value.data(), begin);
        EXPECT_LT(token.attrs[i].value.data(), end);
      }
    }
    if (token.kind == TokenKind::kText) {
      EXPECT_GE(token.value.data(), begin);
      EXPECT_LT(token.value.data(), end);
    }
  }
}

TEST(PullTokenizer, EntityDecodeCopiesIntoArena) {
  const std::string text = "<a v=\"x &amp; y\">&#65;&lt;b&gt;</a>";
  Tokenizer tok{text};
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  const Token& start = tok.next();
  ASSERT_EQ(start.kind, TokenKind::kStartElement);
  ASSERT_EQ(start.attr_count, 1u);
  EXPECT_EQ(start.attrs[0].value, "x & y");
  EXPECT_TRUE(start.attrs[0].value.data() < begin || start.attrs[0].value.data() >= end);
  const Token& body = tok.next();
  ASSERT_EQ(body.kind, TokenKind::kText);
  EXPECT_EQ(body.value, "A<b>");
  EXPECT_TRUE(body.value.data() < begin || body.value.data() >= end);
}

TEST(PullTokenizer, SynthesizesEndElementAfterSelfClosing) {
  Tokenizer tok{"<a><b/></a>"};
  ASSERT_EQ(tok.next().kind, TokenKind::kStartElement);
  EXPECT_EQ(tok.depth(), 1u);
  const Token& b = tok.next();
  ASSERT_EQ(b.kind, TokenKind::kStartElement);
  EXPECT_TRUE(b.self_closing);
  // The self-closing element is never pushed onto the open stack.
  EXPECT_EQ(tok.depth(), 1u);
  const Token& b_end = tok.next();
  ASSERT_EQ(b_end.kind, TokenKind::kEndElement);
  EXPECT_EQ(b_end.name, "b");
  ASSERT_EQ(tok.next().kind, TokenKind::kEndElement);
  EXPECT_EQ(tok.next().kind, TokenKind::kEndDocument);
}

TEST(PullTokenizer, ReportsCommentsCdataAndPis) {
  PullRun run = run_one_shot("<!--pre--><a><!--in--><![CDATA[<raw>]]><?pi data?></a>");
  ASSERT_TRUE(run.error_code.empty()) << run.error_message;
  EXPECT_EQ(run.events[0].kind, TokenKind::kComment);
  EXPECT_EQ(run.events[0].value, "pre");
  EXPECT_EQ(run.events[2].kind, TokenKind::kComment);
  EXPECT_EQ(run.events[2].value, "in");
  EXPECT_EQ(run.events[3].kind, TokenKind::kCData);
  EXPECT_EQ(run.events[3].value, "<raw>");
  EXPECT_EQ(run.events[4].kind, TokenKind::kPi);
}

TEST(PullTokenizer, EnforcesDepthLimit) {
  // kMaxDepth open elements, and a self-closing one inside the innermost.
  std::string deep;
  for (std::size_t i = 0; i < kMaxDepth; ++i) deep += "<a>";
  deep += "<a/>";
  for (std::size_t i = 0; i < kMaxDepth; ++i) deep += "</a>";
  Tokenizer tok{deep};
  for (;;) {
    const Token& token = tok.next();
    if (token.kind == TokenKind::kError) break;
    ASSERT_NE(token.kind, TokenKind::kEndDocument) << "depth limit not enforced";
  }
  EXPECT_EQ(tok.error().code, "xml.too-deep");
  EXPECT_EQ(tok.error().message, "maximum nesting depth exceeded at line 1, column " +
                                     std::to_string(3 * kMaxDepth + 1));

  // Either side of the open-element stack's 16 inline entries and of the
  // limit: each element is opened and closed by its own name, and the
  // 257th start tag fails where it starts.
  const auto nested = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "<e" + std::to_string(i) + ">";
    for (std::size_t i = depth; i-- > 0;) text += "</e" + std::to_string(i) + ">";
    return text;
  };
  for (const std::size_t depth : {std::size_t{16}, std::size_t{17}, kMaxDepth}) {
    const std::string text = nested(depth);
    const PullRun run = run_one_shot(text);
    EXPECT_EQ(run.error_code, "") << depth;
    ASSERT_EQ(run.events.size(), 2 * depth) << depth;
    for (std::size_t i = 0; i < depth; ++i) {
      const std::string name = "e" + std::to_string(i);
      EXPECT_EQ(run.events[i], (Event{TokenKind::kStartElement, name, "", {}, false}));
      EXPECT_EQ(run.events[2 * depth - 1 - i],
                (Event{TokenKind::kEndElement, name, "", {}, false}));
    }
    Tokenizer at_depth{text};
    for (std::size_t i = 0; i < depth; ++i) {
      ASSERT_EQ(at_depth.next().kind, TokenKind::kStartElement);
    }
    EXPECT_EQ(at_depth.depth(), depth);
  }
  const std::string too_deep = nested(kMaxDepth + 1);
  const PullRun refused = run_one_shot(too_deep);
  EXPECT_EQ(refused.error_code, "xml.too-deep");
  EXPECT_EQ(refused.error_message, "maximum nesting depth exceeded at line 1, column " +
                                       std::to_string(too_deep.find("<e256>") + 1));
  EXPECT_EQ(refused.events.size(), kMaxDepth);
}

TEST(PullTokenizer, AttributesEitherSideOfTheInlineList) {
  // Eight attributes fit the inline list; a ninth spills. Every attribute
  // survives in order, the next tag starts an empty list, and a duplicate
  // is still found among the spilled ones.
  const auto tag = [](std::size_t count, std::string_view last_name) {
    std::string text = "<r";
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = i + 1 == count ? std::string(last_name) : "a" + std::to_string(i);
      text += " " + name + "=\"" + std::to_string(i) + "\"";
    }
    return text + "><c x=\"y\"/></r>";
  };
  for (const std::size_t count : {std::size_t{8}, std::size_t{9}}) {
    const PullRun run = run_one_shot(tag(count, "a" + std::to_string(count - 1)));
    EXPECT_EQ(run.error_code, "") << count;
    ASSERT_EQ(run.events.size(), 4u) << count;
    ASSERT_EQ(run.events[0].attrs.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(run.events[0].attrs[i],
                std::make_pair("a" + std::to_string(i), std::to_string(i)));
    }
    EXPECT_EQ(run.events[1].attrs,
              (std::vector<std::pair<std::string, std::string>>{{"x", "y"}}));

    const std::string duplicated = tag(count, "a0");
    const PullRun refused = run_one_shot(duplicated);
    EXPECT_EQ(refused.error_code, "xml.duplicate-attr") << count;
    EXPECT_EQ(refused.error_message,
              "duplicate attribute 'a0' at line 1, column " +
                  std::to_string(duplicated.find("><c") + 1));
  }
}

TEST(PullTokenizer, ReportsLineAndColumnOnStartElements) {
  Tokenizer tok{"<a>\n  <b/>\n</a>"};
  const Token& a = tok.next();
  EXPECT_EQ(tok.location(a.offset).line, 1u);
  EXPECT_EQ(tok.location(a.offset).column, 1u);
  Token b = tok.next();
  if (b.kind == TokenKind::kText) b = tok.next();  // the "\n  " whitespace run
  ASSERT_EQ(b.kind, TokenKind::kStartElement);
  EXPECT_EQ(tok.location(b.offset).line, 2u);
  EXPECT_EQ(tok.location(b.offset).column, 3u);
}

TEST(PullTokenizer, LocationResolvesOffsetsInAnyOrder) {
  // Later, earlier and repeated offsets, past a BOM and CRLF line ends.
  const std::string text = "\xEF\xBB\xBF<a>\r\n <b>\n\n   <c/></b>\n</a>";
  Tokenizer tok{text};
  const std::size_t a = text.find("<a>");
  const std::size_t b = text.find("<b>");
  const std::size_t c = text.find("<c/>");
  const auto at = [&](std::size_t offset) {
    const Tokenizer::Location location = tok.location(offset);
    return std::make_pair(location.line, location.column);
  };
  EXPECT_EQ(at(c), std::make_pair(std::size_t{4}, std::size_t{4}));
  EXPECT_EQ(at(a), std::make_pair(std::size_t{1}, std::size_t{1}));
  EXPECT_EQ(at(b), std::make_pair(std::size_t{2}, std::size_t{2}));
  EXPECT_EQ(at(b), std::make_pair(std::size_t{2}, std::size_t{2}));
  EXPECT_EQ(at(c), std::make_pair(std::size_t{4}, std::size_t{4}));
  EXPECT_EQ(at(a + 1), std::make_pair(std::size_t{1}, std::size_t{2}));
  // Token offsets are where the start tags begin.
  EXPECT_EQ(tok.next().offset, a);
  ASSERT_EQ(tok.next().kind, TokenKind::kText);
  EXPECT_EQ(tok.next().offset, b);
}

TEST(PullTokenizer, DrainReportsWellFormedness) {
  Tokenizer ok{"<a><b>text</b></a>"};
  EXPECT_TRUE(drain(ok).ok());
  Tokenizer bad{"<a><b></a>"};
  Result<bool> verdict = drain(bad);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.error().code, "xml.mismatched-tag");
}

TEST(PullTokenizer, SkipElementConsumesExactlyTheSubtree) {
  Tokenizer tok{"<r><skip><x><y/>deep</x></skip><keep/></r>"};
  ASSERT_EQ(tok.next().kind, TokenKind::kStartElement);  // r
  const Token& skip = tok.next();
  ASSERT_EQ(skip.kind, TokenKind::kStartElement);
  ASSERT_EQ(skip.name, "skip");
  ASSERT_TRUE(skip_element(tok, skip).ok());
  const Token& keep = tok.next();
  ASSERT_EQ(keep.kind, TokenKind::kStartElement);
  EXPECT_EQ(keep.name, "keep");
}

// Error-code parity with the DOM front-end over a table of malformed
// inputs. The DOM parser is a client of this tokenizer, so these assert
// the shared scanner reports the historical codes.
TEST(PullTokenizer, ErrorCodesMatchDomParser) {
  const std::vector<std::string> inputs = {
      "",
      "   ",
      "junk",
      "<",
      "<a",
      "<a x",
      "<a x=",
      "<a x=\"1",
      "<a x=1>",
      "<a x=\"1\" x=\"2\"/>",
      "<a x=\"<\"/>",
      "<a><b></a></b>",
      "<a></b>",
      "<a></a junk>",
      "<a>",
      "<a/><b/>",
      "<a>&nope;</a>",
      "<a>&#xZZ;</a>",
      "<a>&unterminated</a>",
      "<!--never closed",
      "<a><!--never closed",
      "<a><![CDATA[never closed",
      "<a><?pi never closed",
      "<1bad/>",
      "<a/>trailing",
      "<a/><!--unterminated trailer",
      "\xEF\xBB\xBF<a></b>",
      "<!DOCTYPE unterminated",
      "<a><!bogus></a>",
  };
  for (const std::string& text : inputs) {
    Result<Element> dom = parse_element(text);
    PullRun stream = run_one_shot(text);
    if (dom.ok()) {
      EXPECT_EQ(stream.error_code, "") << "input: " << text;
    } else {
      EXPECT_EQ(stream.error_code, dom.error().code) << "input: " << text;
      EXPECT_EQ(stream.error_message, dom.error().message) << "input: " << text;
    }
  }
}

// Attribute values are scanned in one pass that stops at the quote or '<'.
// The codes and messages below are literal (rendered by the find_first_of
// scan it replaced), so a moved error position fails here even though the
// DOM parser shares the tokenizer.
TEST(PullTokenizer, AttributeValueErrorsArePinned) {
  struct Case {
    std::string input;
    std::string code;  // empty: the document is well-formed
    std::string message;
  };
  const std::vector<Case> cases = {
      {"<a x=\"abc", "xml.unterminated-attr",
       "unterminated attribute value at line 1, column 10"},
      {"<a x='abc", "xml.unterminated-attr",
       "unterminated attribute value at line 1, column 10"},
      {"<a x=\"a<b\"/>", "xml.lt-in-attr",
       "'<' not allowed in attribute value at line 1, column 8"},
      {"<a x='a<b'/>", "xml.lt-in-attr",
       "'<' not allowed in attribute value at line 1, column 8"},
      {"<a x=\"it's\"/>", "", ""},
      {"<a x='say \"hi\"'/>", "", ""},
      {"<a x=\"it's", "xml.unterminated-attr",
       "unterminated attribute value at line 1, column 11"},
      {"<a x='say \"hi\"", "xml.unterminated-attr",
       "unterminated attribute value at line 1, column 15"},
      {"<a x=\"&amp;&lt;\"/>", "", ""},
      {"<a x=\"&bogus;\"/>", "xml.unknown-entity",
       "unknown entity '&bogus;' at line 1, column 14"},
      {"<a x='&#xZZ;'/>", "xml.bad-entity",
       "malformed character reference at line 1, column 13"},
      {"<a x=\"&unterminated\"/>", "xml.bad-entity",
       "unterminated entity at line 1, column 20"},
      {"<r>\n  <a\n     x=\"1\"\n     y=\"a<b\"/>\n</r>", "xml.lt-in-attr",
       "'<' not allowed in attribute value at line 4, column 10"},
      {"<r>\n  <a x='1'\n     y='open\n</r>", "xml.lt-in-attr",
       "'<' not allowed in attribute value at line 4, column 1"},
      {"<r>\n  <a x=\"1\"\n     y=\"&nope;\"/>\n</r>", "xml.unknown-entity",
       "unknown entity '&nope;' at line 3, column 15"},
  };
  for (const Case& c : cases) {
    const PullRun whole = run_one_shot(c.input);
    EXPECT_EQ(whole.error_code, c.code) << "input: " << c.input;
    EXPECT_EQ(whole.error_message, c.message) << "input: " << c.input;
  }

  // The other quote kind is plain content, and the start tag keeps the
  // position of its '<' when its attributes span lines.
  const PullRun quoted = run_one_shot("<a x=\"it's\" y='say \"hi\"'/>");
  ASSERT_FALSE(quoted.events.empty());
  EXPECT_EQ(quoted.events[0].attrs,
            (std::vector<std::pair<std::string, std::string>>{{"x", "it's"},
                                                              {"y", "say \"hi\""}}));
  Tokenizer tok{"<r>\n  <a\n     x=\"1\"\n     y='2'/>\n</r>"};
  ASSERT_EQ(tok.next().kind, TokenKind::kStartElement);
  ASSERT_EQ(tok.next().kind, TokenKind::kText);
  const Token& spanning = tok.next();
  ASSERT_EQ(spanning.kind, TokenKind::kStartElement);
  EXPECT_EQ(tok.location(spanning.offset).line, 2u);
  EXPECT_EQ(tok.location(spanning.offset).column, 3u);
  EXPECT_EQ(spanning.attribute("y"), "2");
}

TEST(PullTokenizer, ErrorTokenIsSticky) {
  Tokenizer tok{"junk"};
  while (tok.next().kind != TokenKind::kError) {
  }
  EXPECT_EQ(tok.next().kind, TokenKind::kError);
  EXPECT_EQ(tok.next().kind, TokenKind::kError);
  EXPECT_EQ(tok.error().code, "xml.expected-element");
}

TEST(CollectElement, BuildsSubtreeFromTokenizer) {
  Tokenizer tok{"<r><sub x=\"1\"><in>text</in></sub><after/></r>"};
  ASSERT_EQ(tok.next().kind, TokenKind::kStartElement);  // r
  const Token& sub = tok.next();
  ASSERT_EQ(sub.kind, TokenKind::kStartElement);
  Result<Element> tree = collect_element(tok, sub, Positions::kRecord);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->name(), "sub");
  EXPECT_EQ(tree->source_line(), 1u);
  EXPECT_EQ(tree->source_column(), 4u);
  EXPECT_EQ(tree->child("in")->source_column(), 15u);
  EXPECT_EQ(tree->attribute("x"), "1");
  ASSERT_NE(tree->child("in"), nullptr);
  EXPECT_EQ(tree->child("in")->text(), "text");
  // The cursor resumes exactly after the collected subtree.
  const Token& after = tok.next();
  ASSERT_EQ(after.kind, TokenKind::kStartElement);
  EXPECT_EQ(after.name, "after");
}

TEST(CollectElement, OmitsPositionsWhenAskedTo) {
  Tokenizer tok{"<r>\n <sub><in>text</in></sub></r>"};
  ASSERT_EQ(tok.next().kind, TokenKind::kStartElement);  // r
  Token sub = tok.next();
  if (sub.kind == TokenKind::kText) sub = tok.next();
  ASSERT_EQ(sub.kind, TokenKind::kStartElement);
  Result<Element> tree = collect_element(tok, sub, Positions::kOmit);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->source_line(), 0u);
  EXPECT_EQ(tree->child("in")->source_line(), 0u);
  EXPECT_EQ(tree->child("in")->text(), "text");
  // The offset still resolves on request.
  EXPECT_EQ(tok.location(sub.offset).line, 2u);
  EXPECT_EQ(tok.location(sub.offset).column, 2u);
}

}  // namespace
}  // namespace wsx::xml::pull
