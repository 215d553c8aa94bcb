#include "xml/parser.h"

#include "common/rng.h"
#include "gen/random_tree.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;

TEST(XmlParserTest, MinimalDocument) {
  Result<Document> doc = ParseXml("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->node_count(), 1u);
  EXPECT_EQ(doc->tag(doc->root()), "root");
  EXPECT_EQ(doc->DeweyOf(doc->root()), Id("0"));
}

TEST(XmlParserTest, NestedElementsGetDeweyNumbers) {
  Result<Document> doc =
      ParseXml("<a><b><c/></b><b/><d>text</d></a>");
  ASSERT_TRUE(doc.ok());
  const Document& d = *doc;
  ASSERT_EQ(d.node_count(), 6u);
  Result<NodeId> c = d.FindByDewey(Id("0.0.0"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(d.tag(*c), "c");
  Result<NodeId> text = d.FindByDewey(Id("0.2.0"));
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(d.IsText(*text));
  EXPECT_EQ(d.text(*text), "text");
}

TEST(XmlParserTest, AttributesParsed) {
  Result<Document> doc = ParseXml(
      "<r a=\"1\" b='two' c=\"a&amp;b\"><x key=\"v\"/></r>");
  ASSERT_TRUE(doc.ok());
  const auto& attrs = doc->attributes(doc->root());
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].first, "a");
  EXPECT_EQ(attrs[0].second, "1");
  EXPECT_EQ(attrs[1].second, "two");
  EXPECT_EQ(attrs[2].second, "a&b");
}

TEST(XmlParserTest, EntitiesDecoded) {
  Result<Document> doc =
      ParseXml("<r>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->DirectText(doc->root()), "<tag> & \"q\" 'a' AB");
}

TEST(XmlParserTest, NumericEntityUtf8) {
  Result<Document> doc = ParseXml("<r>&#233;&#x4e2d;</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->DirectText(doc->root()), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(XmlParserTest, CdataPreservedVerbatim) {
  Result<Document> doc = ParseXml("<r><![CDATA[<not>&parsed;]]></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->DirectText(doc->root()), "<not>&parsed;");
}

TEST(XmlParserTest, CommentsAndPisSkipped) {
  Result<Document> doc = ParseXml(
      "<?xml version=\"1.0\"?><!-- top --><r><!-- in -->a<?pi data?>b</r>"
      "<!-- tail -->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->DirectText(doc->root()), "ab");
}

TEST(XmlParserTest, DoctypeWithInternalSubsetSkipped) {
  Result<Document> doc = ParseXml(
      "<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>ok</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->DirectText(doc->root()), "ok");
}

TEST(XmlParserTest, WhitespaceOnlyTextDroppedByDefault) {
  Result<Document> doc = ParseXml("<r>\n  <a/>\n  <b/>\n</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->child_count(doc->root()), 2u);

  ParserOptions keep;
  keep.keep_whitespace_text = true;
  Result<Document> kept = ParseXml("<r>\n  <a/>\n</r>", keep);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->child_count(kept->root()), 3u);
}

TEST(XmlParserTest, MixedContentOrderPreserved) {
  Result<Document> doc = ParseXml("<r>one<b>two</b>three</r>");
  ASSERT_TRUE(doc.ok());
  const auto& kids = doc->children(doc->root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_TRUE(doc->IsText(kids[0]));
  EXPECT_TRUE(doc->IsElement(kids[1]));
  EXPECT_TRUE(doc->IsText(kids[2]));
  EXPECT_EQ(doc->text(kids[2]), "three");
}

TEST(XmlParserTest, Utf8BomAccepted) {
  Result<Document> doc = ParseXml("\xEF\xBB\xBF<r/>");
  ASSERT_TRUE(doc.ok());
}

struct BadInput {
  const char* name;
  const char* xml;
};

// Test listings print each parameter. The default printer dumps the raw
// bytes, i.e. the two string pointers, which move with the load address and
// so changed the listed test names from run to run.
void PrintTo(const BadInput& input, std::ostream* os) { *os << input.name; }

class XmlParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(XmlParserErrorTest, RejectsMalformedInput) {
  Result<Document> doc = ParseXml(GetParam().xml);
  EXPECT_FALSE(doc.ok()) << GetParam().name;
  EXPECT_TRUE(doc.status().IsParseError());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"text_only", "hello"},
        BadInput{"unclosed_root", "<r>"},
        BadInput{"mismatched_tags", "<a><b></a></b>"},
        BadInput{"content_after_root", "<a/><b/>"},
        BadInput{"unterminated_comment", "<a><!-- oops</a>"},
        BadInput{"bad_entity", "<a>&bogus;</a>"},
        BadInput{"unterminated_entity", "<a>&#12</a>"},
        BadInput{"lt_in_attribute", "<a b=\"<\"/>"},
        BadInput{"unquoted_attribute", "<a b=c/>"},
        BadInput{"unterminated_attr", "<a b=\"c/>"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>"},
        BadInput{"bad_name", "<1abc/>"},
        BadInput{"stray_end_tag", "<a></a></b>"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(XmlParserTest, ErrorsCarryLineAndColumn) {
  Result<Document> doc = ParseXml("<a>\n<b>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("3:"), std::string::npos)
      << doc.status().ToString();
}

TEST(XmlParserTest, DepthLimitEnforced) {
  std::string xml;
  for (int i = 0; i < 30; ++i) xml += "<a>";
  xml += "x";
  for (int i = 0; i < 30; ++i) xml += "</a>";
  ParserOptions shallow;
  shallow.max_depth = 10;
  EXPECT_FALSE(ParseXml(xml, shallow).ok());
  EXPECT_TRUE(ParseXml(xml).ok());
}

TEST(XmlSerializeTest, RoundTripPreservesStructure) {
  const char* xml =
      "<school><class name=\"CS2A\"><instructor>John &amp; co</instructor>"
      "<ta>Ben</ta></class><empty/></school>";
  Result<Document> doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  const std::string serialized = SerializeXml(*doc);
  Result<Document> again = ParseXml(serialized);
  ASSERT_TRUE(again.ok()) << serialized;
  EXPECT_EQ(SerializeXml(*again), serialized);
  EXPECT_EQ(doc->node_count(), again->node_count());
}

TEST(XmlSerializeTest, EscapesSpecials) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(XmlSerializeTest, RandomDocumentsRoundTrip) {
  // Property: serialize(parse(serialize(doc))) is a fixed point and the
  // node count is preserved, over many random tree shapes.
  Rng rng(31337);
  for (int round = 0; round < 25; ++round) {
    RandomTreeOptions options;
    options.node_count = 10 + rng.Uniform(400);
    options.max_depth = static_cast<uint32_t>(2 + rng.Uniform(10));
    options.vocab_size = 1 + rng.Uniform(8);
    const Document doc = GenerateRandomDocument(&rng, options);
    const std::string xml = SerializeXml(doc);
    Result<Document> reparsed = ParseXml(xml);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed->node_count(), doc.node_count());
    EXPECT_EQ(SerializeXml(*reparsed), xml);
    // Indented output parses back to the same structure too.
    Result<Document> indented = ParseXml(SerializeXml(doc, /*indent=*/true));
    ASSERT_TRUE(indented.ok());
    EXPECT_EQ(SerializeXml(*indented), xml);
  }
}

// Robustness: random mutations of well-formed input must never crash or
// corrupt state — the parser either succeeds or returns a ParseError.
TEST(XmlParserTest, MutationFuzzNeverCrashes) {
  Rng rng(0xF022);
  RandomTreeOptions options;
  options.node_count = 60;
  options.vocab_size = 4;
  const Document doc = GenerateRandomDocument(&rng, options);
  const std::string base = SerializeXml(doc);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = base;
    const size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // flip a byte
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a byte
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    Result<Document> parsed = ParseXml(mutated);
    if (parsed.ok()) {
      // If it parsed, it must serialize and re-parse consistently.
      Result<Document> again = ParseXml(SerializeXml(*parsed));
      EXPECT_TRUE(again.ok());
    } else {
      EXPECT_TRUE(parsed.status().IsParseError());
    }
  }
}

TEST(XmlParserTest, ParseFileMissingGivesIoError) {
  Result<Document> doc = ParseXmlFile("/nonexistent/path/file.xml");
  EXPECT_TRUE(doc.status().IsIoError());
}

// Unterminated constructs of every flavor: the parser must report a
// clean ParseError (never crash, hang or return a half-built document).
TEST(XmlParserTest, UnterminatedTagsGiveParseError) {
  for (const char* xml : {
           "<a>",                    // missing close tag
           "<a><b></a>",             // mismatched close tag
           "<a",                     // open tag never closed
           "<a foo=\"bar\"",         // attribute list never closed
           "<a foo=\"bar>text",      // attribute value never closed
           "<a>text",                // document ends inside content
           "<a><!-- comment </a>",   // comment never closed
           "<a><![CDATA[stuff</a>",  // CDATA never closed
           "<a></",                  // close tag cut short
           "</a>",                   // close with no open
       }) {
    Result<Document> doc = ParseXml(xml);
    EXPECT_TRUE(doc.status().IsParseError())
        << "input: " << xml << " -> " << doc.status().ToString();
  }
}

TEST(XmlParserTest, BadEntitiesGiveParseError) {
  for (const char* xml : {
           "<a>&bogus;</a>",     // unknown named entity
           "<a>&unterminated",   // entity never closed
           "<a>&#xZZ;</a>",      // non-hex digits
           "<a>&#;</a>",         // empty numeric entity
           "<a>&#x110000;</a>",  // beyond the Unicode range
       }) {
    Result<Document> doc = ParseXml(xml);
    EXPECT_TRUE(doc.status().IsParseError())
        << "input: " << xml << " -> " << doc.status().ToString();
  }
  // The well-formed entities still work.
  Result<Document> ok = ParseXml("<a>&amp;&lt;&gt;&#65;</a>");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(XmlParserTest, NestingBeyondMaxDepthGivesParseError) {
  ParserOptions options;
  options.max_depth = 64;
  std::string open, close;
  for (int i = 0; i < 200; ++i) {
    open += "<d>";
    close += "</d>";
  }
  Result<Document> deep = ParseXml(open + close, options);
  EXPECT_TRUE(deep.status().IsParseError()) << deep.status().ToString();

  // Exactly at the limit parses fine.
  std::string at_open, at_close;
  for (uint32_t i = 0; i < options.max_depth; ++i) {
    at_open += "<d>";
    at_close += "</d>";
  }
  Result<Document> at_limit = ParseXml(at_open + at_close, options);
  EXPECT_TRUE(at_limit.ok()) << at_limit.status().ToString();
}

}  // namespace
}  // namespace xksearch
