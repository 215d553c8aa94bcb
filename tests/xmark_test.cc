#include "gen/xmark_generator.h"

#include <algorithm>

#include "engine/xksearch.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "slca/brute_force.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xksearch {
namespace {

using testing_util::Strings;

TEST(XmarkTest, ShapeMatchesSchema) {
  XmarkOptions options;
  options.items = 300;
  options.people = 100;
  Result<Document> doc = GenerateXmark(options);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->tag(doc->root()), "site");
  const auto range = doc->children(doc->root());
  const std::vector<NodeId> kids(range.begin(), range.end());
  ASSERT_EQ(kids.size(), 4u);
  EXPECT_EQ(doc->tag(kids[0]), "people");
  EXPECT_EQ(doc->tag(kids[1]), "regions");
  EXPECT_EQ(doc->tag(kids[2]), "open_auctions");
  EXPECT_EQ(doc->tag(kids[3]), "closed_auctions");
}

TEST(XmarkTest, DescriptionsNestAndDeepenTheTree) {
  XmarkOptions flat;
  flat.items = 200;
  flat.description_depth = 0;
  XmarkOptions deep = flat;
  deep.description_depth = 5;
  Result<Document> flat_doc = GenerateXmark(flat);
  Result<Document> deep_doc = GenerateXmark(deep);
  ASSERT_TRUE(flat_doc.ok());
  ASSERT_TRUE(deep_doc.ok());
  EXPECT_GT(deep_doc->max_depth(), flat_doc->max_depth() + 4);
}

TEST(XmarkTest, PlantedFrequenciesAreExact) {
  XmarkOptions options;
  options.items = 1500;
  options.plants = {{"needle", 7}, {"common", 600}, {"everywhere", 1500}};
  Result<Document> doc = GenerateXmark(options);
  ASSERT_TRUE(doc.ok());
  InvertedIndex index = InvertedIndex::Build(*doc);
  EXPECT_EQ(index.Frequency("needle"), 7u);
  EXPECT_EQ(index.Frequency("common"), 600u);
  EXPECT_EQ(index.Frequency("everywhere"), 1500u);
}

TEST(XmarkTest, DeterministicForSeed) {
  XmarkOptions options;
  options.items = 200;
  options.plants = {{"kw", 20}};
  Result<Document> a = GenerateXmark(options);
  Result<Document> b = GenerateXmark(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeXml(*a), SerializeXml(*b));
}

TEST(XmarkTest, RejectsBadPlants) {
  XmarkOptions options;
  options.items = 10;
  options.plants = {{"kw", 11}};
  EXPECT_TRUE(GenerateXmark(options).status().IsInvalidArgument());
  XmarkOptions collision;
  collision.plants = {{"x5", 1}};
  EXPECT_TRUE(GenerateXmark(collision).status().IsInvalidArgument());
}

TEST(XmarkTest, QueriesAgreeWithOracleOnDeepTree) {
  XmarkOptions options;
  options.items = 800;
  options.description_depth = 5;
  options.plants = {{"alpha", 25}, {"beta", 400}};
  Result<Document> doc = GenerateXmark(options);
  ASSERT_TRUE(doc.ok());
  InvertedIndex index = InvertedIndex::Build(*doc);
  Result<std::vector<DeweyId>> expected =
      OracleSlca(*doc, index, {"alpha", "beta"});
  ASSERT_TRUE(expected.ok());

  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc));
  ASSERT_TRUE(system.ok());
  for (AlgorithmChoice choice : {AlgorithmChoice::kIndexedLookupEager,
                                 AlgorithmChoice::kScanEager,
                                 AlgorithmChoice::kStack}) {
    SearchOptions opts;
    opts.algorithm = choice;
    Result<SearchResult> got = (*system)->Search({"alpha", "beta"}, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Strings(got->nodes), Strings(*expected));
  }
  // All-LCA and ELCA still agree with their oracles on this deep shape.
  SearchOptions lca;
  lca.semantics = Semantics::kAllLca;
  Result<SearchResult> all = (*system)->Search({"alpha", "beta"}, lca);
  ASSERT_TRUE(all.ok());
  Result<std::vector<DeweyId>> lca_expected = OracleAllLca(
      (*system)->document(), (*system)->index(), {"alpha", "beta"});
  ASSERT_TRUE(lca_expected.ok());
  EXPECT_EQ(Strings(all->nodes), Strings(*lca_expected));
}

}  // namespace
}  // namespace xksearch
