#include "xml/document.h"

#include <string>
#include <vector>

#include "gen/dblp_generator.h"
#include "gen/random_tree.h"
#include "gen/xmark_generator.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xksearch {
namespace {

using testing_util::Id;

Document MakeSample() {
  Document doc;
  const NodeId root = doc.CreateRoot("root");
  const NodeId a = doc.AppendElement(root, "a");
  doc.AppendText(a, "hello");
  doc.AppendElement(a, "leaf");
  const NodeId b = doc.AppendElement(root, "b");
  doc.AppendText(b, "world");
  doc.AppendText(b, "again");
  return doc;
}

TEST(DocumentTest, DeweyNumbersFollowStructure) {
  Document doc = MakeSample();
  EXPECT_EQ(doc.DeweyOf(0), Id("0"));
  // a = 0.0, its text = 0.0.0, leaf = 0.0.1, b = 0.1.
  Result<NodeId> a = doc.FindByDewey(Id("0.0"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(doc.tag(*a), "a");
  Result<NodeId> leaf = doc.FindByDewey(Id("0.0.1"));
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(doc.tag(*leaf), "leaf");
  EXPECT_EQ(doc.DeweyOf(*leaf), Id("0.0.1"));
}

TEST(DocumentTest, FindByDeweyFailsOnMissing) {
  Document doc = MakeSample();
  EXPECT_TRUE(doc.FindByDewey(Id("0.9")).status().IsNotFound());
  EXPECT_TRUE(doc.FindByDewey(Id("1")).status().IsNotFound());
  EXPECT_TRUE(doc.FindByDewey(DeweyId()).status().IsNotFound());
}

TEST(DocumentTest, FindByDeweyInverseOfDeweyOf) {
  Document doc = MakeSample();
  for (NodeId n = 0; n < doc.node_count(); ++n) {
    Result<NodeId> found = doc.FindByDewey(doc.DeweyOf(n));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, n);
  }
}

TEST(DocumentTest, ParentAndOrdinal) {
  Document doc = MakeSample();
  Result<NodeId> b = doc.FindByDewey(Id("0.1"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(doc.parent(*b), doc.root());
  EXPECT_EQ(doc.ordinal(*b), 1u);
  EXPECT_EQ(doc.parent(doc.root()), kInvalidNode);
}

TEST(DocumentTest, LevelsAndMaxDepth) {
  Document doc = MakeSample();
  EXPECT_EQ(doc.level(doc.root()), 0u);
  EXPECT_EQ(doc.max_depth(), 2u);
}

TEST(DocumentTest, DirectTextConcatenatesImmediateTextChildren) {
  Document doc = MakeSample();
  Result<NodeId> b = doc.FindByDewey(Id("0.1"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(doc.DirectText(*b), "world again");
  // Root has no direct text (only element children).
  EXPECT_EQ(doc.DirectText(doc.root()), "");
}

TEST(DocumentTest, TagInterning) {
  Document doc;
  const NodeId root = doc.CreateRoot("x");
  for (int i = 0; i < 100; ++i) doc.AppendElement(root, "repeated");
  EXPECT_EQ(doc.tag_count(), 2u);
}

TEST(DocumentTest, AttributesStoredPerElement) {
  Document doc;
  const NodeId root = doc.CreateRoot("x");
  doc.AddAttribute(root, "k", "v");
  doc.AddAttribute(root, "k2", "v2");
  ASSERT_EQ(doc.attributes(root).size(), 2u);
  const NodeId child = doc.AppendElement(root, "y");
  EXPECT_TRUE(doc.attributes(child).empty());
}

TEST(DocumentTest, CloneIsADeepIndependentCopy) {
  Document doc = MakeSample();
  doc.AddAttribute(doc.root(), "year", "2005");
  const Document clone = doc.Clone();
  ASSERT_EQ(clone.node_count(), doc.node_count());
  for (NodeId n = 0; n < doc.node_count(); ++n) {
    EXPECT_EQ(clone.DeweyOf(n), doc.DeweyOf(n));
    if (doc.IsText(n)) {
      EXPECT_EQ(clone.text(n), doc.text(n));
    } else {
      EXPECT_EQ(clone.tag(n), doc.tag(n));
    }
  }
  ASSERT_EQ(clone.attributes(clone.root()).size(), 1u);
  EXPECT_EQ(clone.attributes(clone.root())[0].second, "2005");

  // Growing the original must not leak into the clone (and vice versa):
  // the sharded builder clones one corpus document into several
  // collections, which only works if the copies share nothing.
  const size_t before = clone.node_count();
  doc.AppendElement(doc.root(), "added");
  doc.AddAttribute(doc.root(), "venue", "sigmod");
  EXPECT_EQ(clone.node_count(), before);
  EXPECT_EQ(clone.attributes(clone.root()).size(), 1u);
  EXPECT_TRUE(clone.FindByDewey(Id("0.2")).status().IsNotFound());
}

// Reference for the splice: a node-by-node copy of `src` under `parent`
// through the public append calls.
void CopySubtree(const Document& src, NodeId node, Document* dst,
                 NodeId parent) {
  if (src.IsText(node)) {
    dst->AppendText(parent, src.text(node));
    return;
  }
  const NodeId copy = dst->AppendElement(parent, src.tag(node));
  for (const auto& [name, value] : src.attributes(node)) {
    dst->AddAttribute(copy, name, value);
  }
  for (const NodeId child : src.children(node)) {
    CopySubtree(src, child, dst, copy);
  }
}

std::vector<Document> SpliceSources() {
  std::vector<Document> sources;
  Rng rng(5);
  RandomTreeOptions tree;
  tree.node_count = 300;
  sources.push_back(GenerateRandomDocument(&rng, tree));
  DblpOptions dblp;
  dblp.papers = 200;
  dblp.venues = 3;
  dblp.years_per_venue = 2;
  Result<Document> bib = GenerateDblp(dblp);
  EXPECT_TRUE(bib.ok());
  sources.push_back(bib.MoveValueUnsafe());
  XmarkOptions xmark;
  xmark.items = 40;
  xmark.people = 15;
  Result<Document> site = GenerateXmark(xmark);
  EXPECT_TRUE(site.ok());
  sources.push_back(site.MoveValueUnsafe());
  sources.push_back(MakeSample());
  return sources;
}

TEST(DocumentTest, AppendDocumentMatchesDeepCopy) {
  const std::vector<Document> sources = SpliceSources();
  Document spliced;
  Document copied;
  const NodeId root = spliced.CreateRoot("_");
  copied.CreateRoot("_");
  // One level down as well, so levels shift by more than one.
  const NodeId nest = spliced.AppendElement(root, "nest");
  const NodeId copied_nest = copied.AppendElement(copied.root(), "nest");
  for (const Document& src : sources) {
    const NodeId at = spliced.AppendDocument(root, src);
    EXPECT_EQ(spliced.parent(at), root);
    CopySubtree(src, src.root(), &copied, copied.root());
  }
  spliced.AppendDocument(nest, sources[1]);
  CopySubtree(sources[1], sources[1].root(), &copied, copied_nest);
  // Appends after a splice continue the sibling chain.
  spliced.AppendText(root, "tail");
  copied.AppendText(copied.root(), "tail");

  EXPECT_EQ(SerializeXml(spliced), SerializeXml(copied));
  EXPECT_EQ(SerializeXml(spliced, /*indent=*/true),
            SerializeXml(copied, /*indent=*/true));
  ASSERT_EQ(spliced.node_count(), copied.node_count());
  EXPECT_EQ(spliced.max_depth(), copied.max_depth());
  EXPECT_EQ(spliced.text_count(), copied.text_count());
  EXPECT_EQ(spliced.text_bytes(), copied.text_bytes());

  // Every source node, found by its Dewey number under the root.
  for (size_t s = 0; s < sources.size(); ++s) {
    const Document& src = sources[s];
    for (NodeId n = 0; n < src.node_count(); ++n) {
      const DeweyId local = src.DeweyOf(n);
      std::vector<uint32_t> components = {0, static_cast<uint32_t>(s + 1)};
      for (size_t i = 1; i < local.depth(); ++i) {
        components.push_back(local.component(i));
      }
      const DeweyId id(std::move(components));
      Result<NodeId> found = spliced.FindByDewey(id);
      ASSERT_TRUE(found.ok()) << id.ToString();
      const NodeId m = *found;
      ASSERT_EQ(spliced.DeweyOf(m), id);
      ASSERT_EQ(spliced.kind(m), src.kind(n));
      ASSERT_EQ(spliced.level(m), src.level(n) + 1);
      ASSERT_EQ(spliced.child_count(m), src.child_count(n));
      ASSERT_EQ(spliced.attributes(m), src.attributes(n));
      if (src.IsText(n)) {
        ASSERT_EQ(spliced.text(m), src.text(n));
      } else {
        ASSERT_EQ(spliced.tag(m), src.tag(n));
        ASSERT_EQ(spliced.DirectText(m), src.DirectText(n));
      }
    }
  }
  // And every node of the spliced tree agrees with the copy.
  for (NodeId n = 0; n < copied.node_count(); ++n) {
    Result<NodeId> found = spliced.FindByDewey(copied.DeweyOf(n));
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(spliced.child_count(*found), copied.child_count(n));
    ASSERT_EQ(spliced.attributes(*found), copied.attributes(n));
  }
}

// Compact storage: a node record, its text offset and the text itself,
// with no per-node heap block.
TEST(DocumentTest, GeneratedDblpStaysCompact) {
  DblpOptions options;
  options.papers = 3000;
  Result<Document> doc = GenerateDblp(options);
  ASSERT_TRUE(doc.ok());
  const size_t budget = 40 * doc->node_count() + doc->text_bytes();
  EXPECT_LT(doc->memory_bytes(), budget)
      << doc->node_count() << " nodes, " << doc->text_bytes()
      << " text bytes";
  EXPECT_GT(doc->memory_bytes(), doc->text_bytes());
}

TEST(DocumentTest, MoveTransfersOwnership) {
  Document doc = MakeSample();
  const size_t n = doc.node_count();
  Document moved = std::move(doc);
  EXPECT_EQ(moved.node_count(), n);
  EXPECT_EQ(moved.tag(moved.root()), "root");
}

}  // namespace
}  // namespace xksearch
