#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/dblp_generator.h"
#include "gen/query_sampler.h"
#include "gen/random_tree.h"
#include "gen/school.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xksearch {
namespace {

TEST(SchoolTest, BuildsExpectedShape) {
  Document doc = BuildSchoolDocument();
  EXPECT_EQ(doc.tag(doc.root()), "school");
  EXPECT_GT(doc.node_count(), 30u);
  // The XML rendering parses back to the same structure.
  Result<Document> reparsed = ParseXml(SchoolXml());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->node_count(), doc.node_count());
}

TEST(RandomTreeTest, DeterministicForSameSeed) {
  RandomTreeOptions options;
  options.node_count = 200;
  Rng r1(5), r2(5);
  const Document a = GenerateRandomDocument(&r1, options);
  const Document b = GenerateRandomDocument(&r2, options);
  EXPECT_EQ(SerializeXml(a), SerializeXml(b));
}

TEST(RandomTreeTest, RespectsNodeBudgetAndDepth) {
  RandomTreeOptions options;
  options.node_count = 150;
  options.max_depth = 4;
  Rng rng(8);
  const Document doc = GenerateRandomDocument(&rng, options);
  size_t elements = 0;
  for (NodeId n = 0; n < doc.node_count(); ++n) {
    if (doc.IsElement(n)) ++elements;
    // Text children add one extra level beyond element depth.
    EXPECT_LE(doc.level(n), options.max_depth + 1);
  }
  EXPECT_LE(elements, options.node_count);
  EXPECT_GT(elements, options.node_count / 2);
}

TEST(RandomTreeTest, VocabularyCoversRequestedWords) {
  RandomTreeOptions options;
  options.vocab_size = 3;
  EXPECT_EQ(RandomTreeVocabulary(options),
            (std::vector<std::string>{"w0", "w1", "w2"}));
}

TEST(DblpGeneratorTest, PlantedFrequenciesAreExact) {
  DblpOptions options;
  options.papers = 2000;
  options.seed = 11;
  options.plants = {{"alpha", 10}, {"beta", 250}, {"gamma", 2000}};
  Result<Document> doc = GenerateDblp(options);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  InvertedIndex index = InvertedIndex::Build(*doc);
  EXPECT_EQ(index.Frequency("alpha"), 10u);
  EXPECT_EQ(index.Frequency("beta"), 250u);
  EXPECT_EQ(index.Frequency("gamma"), 2000u);
}

TEST(DblpGeneratorTest, ShapeIsGroupedByVenueAndYear) {
  DblpOptions options;
  options.papers = 500;
  options.venues = 5;
  options.years_per_venue = 4;
  Result<Document> doc = GenerateDblp(options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->tag(doc->root()), "dblp");
  EXPECT_EQ(doc->child_count(doc->root()), 5u);
  // Depth: dblp/venue/year/paper/field/text = 6 levels (0-based max 5).
  EXPECT_EQ(doc->max_depth(), 5u);
  // Papers land under years.
  const NodeId venue = *doc->children(doc->root()).begin();
  bool found_year = false;
  for (NodeId c : doc->children(venue)) {
    if (doc->tag(c) == "year") {
      found_year = true;
      EXPECT_FALSE(doc->children(c).empty());
    }
  }
  EXPECT_TRUE(found_year);
}

TEST(DblpGeneratorTest, DeterministicForSeed) {
  DblpOptions options;
  options.papers = 300;
  options.plants = {{"kw", 30}};
  Result<Document> a = GenerateDblp(options);
  Result<Document> b = GenerateDblp(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeXml(*a), SerializeXml(*b));
}

TEST(DblpGeneratorTest, RejectsImpossiblePlants) {
  DblpOptions options;
  options.papers = 10;
  options.plants = {{"kw", 11}};
  EXPECT_TRUE(GenerateDblp(options).status().IsInvalidArgument());

  DblpOptions collision;
  collision.plants = {{"t123", 1}};  // background vocabulary prefix
  EXPECT_TRUE(GenerateDblp(collision).status().IsInvalidArgument());

  DblpOptions zero;
  zero.papers = 0;
  EXPECT_TRUE(GenerateDblp(zero).status().IsInvalidArgument());
}

TEST(DblpGeneratorTest, MultiplePlantsCanShareAPaper) {
  // With frequencies equal to the paper count every paper carries both.
  DblpOptions options;
  options.papers = 50;
  options.plants = {{"xx", 50}, {"yy", 50}};
  Result<Document> doc = GenerateDblp(options);
  ASSERT_TRUE(doc.ok());
  InvertedIndex index = InvertedIndex::Build(*doc);
  EXPECT_EQ(index.Frequency("xx"), 50u);
  EXPECT_EQ(index.Frequency("yy"), 50u);
}

TEST(DblpGeneratorTest, ZipfBackgroundIsSkewed) {
  DblpOptions uniform;
  uniform.papers = 3000;
  uniform.vocab_size = 500;
  DblpOptions zipf = uniform;
  zipf.zipf_exponent = 1.1;
  Result<Document> u = GenerateDblp(uniform);
  Result<Document> z = GenerateDblp(zipf);
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(z.ok());
  InvertedIndex ui = InvertedIndex::Build(*u);
  InvertedIndex zi = InvertedIndex::Build(*z);
  // Under Zipf, the most frequent background word dominates; under the
  // uniform draw no word does.
  auto max_freq = [](const InvertedIndex& index) {
    uint64_t best = 0;
    for (const std::string& term : index.Terms()) {
      if (term.size() >= 2 && term[0] == 't' &&
          std::isdigit(static_cast<unsigned char>(term[1]))) {
        best = std::max<uint64_t>(best, index.Frequency(term));
      }
    }
    return best;
  };
  EXPECT_GT(max_freq(zi), 2 * max_freq(ui));
  // The long tail: Zipf leaves many vocabulary words unused or rare.
  EXPECT_LT(zi.term_count(), ui.term_count() + 200);
}

TEST(QuerySamplerTest, FindsKeywordNearTargetFrequency) {
  DblpOptions options;
  options.papers = 1000;
  options.plants = {{"rare", 10}, {"mid", 100}, {"common", 900}};
  Result<Document> doc = GenerateDblp(options);
  ASSERT_TRUE(doc.ok());
  InvertedIndex index = InvertedIndex::Build(*doc);
  QuerySampler sampler(index);
  Rng rng(3);
  const std::string kw = sampler.SampleKeyword(&rng, 10, 0.0);
  EXPECT_EQ(index.Frequency(kw), 10u);
  // A frequency no term has (tolerance 0) yields nothing.
  EXPECT_EQ(sampler.SampleKeyword(&rng, 55555, 0.0), "");
}

TEST(QuerySamplerTest, QueriesHaveRequestedShape) {
  DblpOptions options;
  options.papers = 1000;
  options.plants = {{"aa", 50}, {"ab", 50}, {"ac", 50}, {"big", 800}};
  Result<Document> doc = GenerateDblp(options);
  ASSERT_TRUE(doc.ok());
  InvertedIndex index = InvertedIndex::Build(*doc);
  QuerySampler sampler(index);
  Rng rng(4);
  const auto queries = sampler.SampleQueries(&rng, 40, {50, 800}, 0.1);
  EXPECT_EQ(queries.size(), 40u);
  for (const auto& q : queries) {
    ASSERT_EQ(q.size(), 2u);
    EXPECT_NEAR(static_cast<double>(index.Frequency(q[0])), 50.0, 5.0);
    EXPECT_NEAR(static_cast<double>(index.Frequency(q[1])), 800.0, 80.0);
    EXPECT_NE(q[0], q[1]);
  }
}

}  // namespace
}  // namespace xksearch
