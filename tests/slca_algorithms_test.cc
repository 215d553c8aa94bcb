#include "slca/slca.h"

#include <string>
#include <vector>

#include "gen/school.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "slca/brute_force.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;
using testing_util::Strings;

constexpr SlcaAlgorithm kAllAlgorithms[] = {
    SlcaAlgorithm::kIndexedLookupEager,
    SlcaAlgorithm::kScanEager,
    SlcaAlgorithm::kStack,
};

/// Runs `algorithm` over in-memory lists and returns the SLCAs.
std::vector<DeweyId> RunSlca(SlcaAlgorithm algorithm,
                         const std::vector<std::vector<DeweyId>>& lists,
                         QueryStats* stats = nullptr,
                         size_t block_size = 1) {
  QueryStats local;
  if (stats == nullptr) stats = &local;
  std::vector<std::unique_ptr<KeywordList>> owned;
  std::vector<KeywordList*> ptrs;
  for (const auto& list : lists) {
    owned.push_back(std::make_unique<VectorKeywordList>(&list, stats));
    ptrs.push_back(owned.back().get());
  }
  SlcaOptions options;
  options.block_size = block_size;
  Result<std::vector<DeweyId>> result =
      ComputeSlcaList(algorithm, ptrs, options, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.ValueOrDie() : std::vector<DeweyId>{};
}

class AllAlgorithmsTest : public ::testing::TestWithParam<SlcaAlgorithm> {};

INSTANTIATE_TEST_SUITE_P(Algorithms, AllAlgorithmsTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         [](const ::testing::TestParamInfo<SlcaAlgorithm>& i) {
                           return ToString(i.param);
                         });

TEST_P(AllAlgorithmsTest, PaperExampleJohnBen) {
  // The paper's School.xml: {john, ben} has exactly three answers — the
  // CS2A class, the CS3A class, and the baseball players element.
  Document doc = BuildSchoolDocument();
  InvertedIndex index = InvertedIndex::Build(doc);
  const std::vector<std::vector<DeweyId>> lists = {index.Materialize("john"),
                                                   index.Materialize("ben")};
  const std::vector<DeweyId> got = RunSlca(GetParam(), lists);
  Result<std::vector<DeweyId>> expected =
      OracleSlca(doc, index, {"john", "ben"});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(got, *expected);
  EXPECT_EQ(got.size(), 3u) << ::testing::PrintToString(Strings(got));
}

TEST_P(AllAlgorithmsTest, SingleKeywordReturnsWholeList) {
  // With one keyword, the smallest answer subtrees are exactly the
  // instance nodes that have no instance below them.
  const auto list = Ids({"0.1", "0.1.2", "0.3"});
  const std::vector<DeweyId> got = RunSlca(GetParam(), {list});
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0.1.2", "0.3"}));
}

TEST_P(AllAlgorithmsTest, EmptyListYieldsNoResults) {
  EXPECT_TRUE(RunSlca(GetParam(), {Ids({"0.1"}), {}}).empty());
  EXPECT_TRUE(RunSlca(GetParam(), {{}, Ids({"0.1"})}).empty());
}

TEST_P(AllAlgorithmsTest, DisjointSubtreesGiveRoot) {
  const std::vector<DeweyId> got =
      RunSlca(GetParam(), {Ids({"0.1.0"}), Ids({"0.2.0"})});
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0"}));
}

TEST_P(AllAlgorithmsTest, SameNodeInBothLists) {
  // A single node containing both keywords is its own SLCA.
  const std::vector<DeweyId> got =
      RunSlca(GetParam(), {Ids({"0.1.1"}), Ids({"0.1.1"})});
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0.1.1"}));
}

TEST_P(AllAlgorithmsTest, AncestorResultsSuppressed) {
  // Pairs exist under 0.1 and under 0.2; the root also contains both
  // keywords but must not be reported (not smallest).
  const auto s1 = Ids({"0.1.0", "0.2.0"});
  const auto s2 = Ids({"0.1.1", "0.2.1"});
  const std::vector<DeweyId> got = RunSlca(GetParam(), {s1, s2});
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0.1", "0.2"}));
}

TEST_P(AllAlgorithmsTest, NestedMatchesKeepDeepest) {
  // Both keywords occur under 0.0.0 and (separately) directly under 0.0;
  // only the deep pair survives ancestor removal.
  const auto s1 = Ids({"0.0.0.1", "0.0.5"});
  const auto s2 = Ids({"0.0.0.2", "0.0.6"});
  const std::vector<DeweyId> got = RunSlca(GetParam(), {s1, s2});
  // lca(0.0.5, 0.0.6) = 0.0, which is an ancestor of 0.0.0 -> removed.
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0.0.0"}));
}

TEST_P(AllAlgorithmsTest, KeywordOnAncestorNode) {
  // One keyword sits on an ancestor of the other's instances: the SLCA is
  // the ancestor node itself.
  const auto s1 = Ids({"0.1"});
  const auto s2 = Ids({"0.1.3.2"});
  const std::vector<DeweyId> got = RunSlca(GetParam(), {s1, s2});
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0.1"}));
}

TEST_P(AllAlgorithmsTest, ThreeKeywords) {
  const auto s1 = Ids({"0.0.1", "0.2.0"});
  const auto s2 = Ids({"0.0.2", "0.2.1"});
  const auto s3 = Ids({"0.0.3", "0.5"});
  const std::vector<DeweyId> got = RunSlca(GetParam(), {s1, s2, s3});
  EXPECT_EQ(got, BruteForceSlca({s1, s2, s3}));
  // The root also covers all three keywords but is an ancestor of 0.0.
  EXPECT_EQ(Strings(got), (std::vector<std::string>{"0.0"}));
}

TEST_P(AllAlgorithmsTest, ResultsInDocumentOrderAndUnique) {
  const auto s1 = Ids({"0.0.0", "0.1.0", "0.2.0", "0.3.0"});
  const auto s2 = Ids({"0.0.1", "0.1.1", "0.2.1", "0.3.1"});
  const std::vector<DeweyId> got = RunSlca(GetParam(), {s1, s2});
  EXPECT_EQ(Strings(got),
            (std::vector<std::string>{"0.0", "0.1", "0.2", "0.3"}));
}

TEST_P(AllAlgorithmsTest, TooManyListsRejected) {
  std::vector<std::vector<DeweyId>> lists(65, Ids({"0.1"}));
  QueryStats stats;
  std::vector<std::unique_ptr<KeywordList>> owned;
  std::vector<KeywordList*> ptrs;
  for (const auto& list : lists) {
    owned.push_back(std::make_unique<VectorKeywordList>(&list, &stats));
    ptrs.push_back(owned.back().get());
  }
  Result<std::vector<DeweyId>> result =
      ComputeSlcaList(GetParam(), ptrs, {}, &stats);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_P(AllAlgorithmsTest, NoListsRejected) {
  QueryStats stats;
  Result<std::vector<DeweyId>> result =
      ComputeSlcaList(GetParam(), {}, {}, &stats);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_P(AllAlgorithmsTest, BlockSizeDoesNotChangeResults) {
  const auto s1 = Ids({"0.0.0", "0.1.0", "0.2.0", "0.3.0", "0.4.4.4"});
  const auto s2 = Ids({"0.0.1", "0.1.1", "0.2.1", "0.3.1", "0.4.4.5"});
  const std::vector<DeweyId> baseline = RunSlca(GetParam(), {s1, s2});
  for (size_t block : {2u, 3u, 100u}) {
    EXPECT_EQ(RunSlca(GetParam(), {s1, s2}, nullptr, block), baseline)
        << "block=" << block;
  }
}

TEST(IndexedLookupTest, MatchStepPropertyOne) {
  // Property 1 example: slca({v}, S) is the deeper of the two lca's.
  QueryStats stats;
  const auto list = Ids({"0.0.1", "0.2.5"});
  VectorKeywordList s(&list, &stats);
  MatchScratch scratch;
  // v between the two entries: lm=0.0.1 (lca 0.0 if under 0.0 ... here
  // v=0.0.9: lca(v,lm)=0.0, lca(v,rm)=0 -> deeper is 0.0.
  DeweyId x = Id("0.0.9");
  XKS_ASSERT_OK(MatchStep(&s, &x, &scratch, &stats));
  EXPECT_EQ(x, Id("0.0"));
  EXPECT_EQ(stats.match_ops, 2u);
  EXPECT_EQ(stats.lca_ops, 2u);
  // v below an entry: the entry is its own lm and the slca is v's
  // ancestor at that entry... lm(0.0.1.7)=0.0.1, lca=0.0.1.
  x = Id("0.0.1.7");
  XKS_ASSERT_OK(MatchStep(&s, &x, &scratch, &stats));
  EXPECT_EQ(x, Id("0.0.1"));
  // v before everything: only rm exists.
  x = Id("0.0.0");
  XKS_ASSERT_OK(MatchStep(&s, &x, &scratch, &stats));
  EXPECT_EQ(x, Id("0.0"));
  // v after everything: only lm exists.
  x = Id("0.9");
  XKS_ASSERT_OK(MatchStep(&s, &x, &scratch, &stats));
  EXPECT_EQ(x, Id("0"));
  EXPECT_EQ(stats.match_ops, 8u);
  EXPECT_EQ(stats.lca_ops, 6u);
  // An empty list truncates x to the empty id.
  const std::vector<DeweyId> none;
  VectorKeywordList empty(&none, &stats);
  x = Id("0.3");
  XKS_ASSERT_OK(MatchStep(&empty, &x, &scratch, &stats));
  EXPECT_EQ(x, DeweyId());
}

TEST(IndexedLookupTest, StatsCountMatchOperations) {
  // k=3 lists with |S1|=2: the IL chain performs one lm and one rm per
  // (v in S1, other list) pair = 2 nodes * 2 lists * 2 ops = 8.
  const auto s1 = Ids({"0.0.0", "0.1.0", "0.2.0", "0.3.0"});
  const auto s2 = Ids({"0.0.1", "0.1.1", "0.2.1", "0.3.1"});
  const auto s3 = Ids({"0.0.2", "0.3.2"});
  QueryStats stats;
  // Note: lists are ordered by size by the caller; s3 smallest.
  RunSlca(SlcaAlgorithm::kIndexedLookupEager, {s3, s1, s2}, &stats);
  EXPECT_EQ(stats.match_ops, 8u);
  EXPECT_EQ(stats.postings_read, 2u);  // only S1 is streamed
}

TEST(StackTest, ReadsEveryList) {
  const auto s1 = Ids({"0.0.0"});
  const auto s2 = Ids({"0.0.1", "0.1.1", "0.2.1", "0.3.1"});
  QueryStats stats;
  RunSlca(SlcaAlgorithm::kStack, {s1, s2}, &stats);
  EXPECT_EQ(stats.postings_read, 5u);  // the whole input, always
}

TEST(ScanEagerTest, ReadsListsAtMostOnce) {
  const auto s1 = Ids({"0.0.0", "0.5.0"});
  const auto s2 = Ids({"0.0.1", "0.1.1", "0.2.1", "0.5.1"});
  QueryStats stats;
  RunSlca(SlcaAlgorithm::kScanEager, {s1, s2}, &stats);
  EXPECT_LE(stats.postings_read, s1.size() + s2.size());
}

TEST(RemoveAncestorsTest, Basics) {
  EXPECT_EQ(Strings(RemoveAncestors(Ids({"0", "0.1", "0.1.2", "0.2"}))),
            (std::vector<std::string>{"0.1.2", "0.2"}));
  EXPECT_EQ(Strings(RemoveAncestors(Ids({"0.3", "0.1"}))),
            (std::vector<std::string>{"0.1", "0.3"}));
  EXPECT_EQ(Strings(RemoveAncestors(Ids({"0.1", "0.1"}))),
            (std::vector<std::string>{"0.1"}));
  EXPECT_TRUE(RemoveAncestors({}).empty());
}

TEST(BruteForceTest, MatchesDefinitionOnTinyInput) {
  const auto s1 = Ids({"0.0.1", "0.2"});
  const auto s2 = Ids({"0.0.2", "0.3"});
  // Combinations: lca(0.0.1,0.0.2)=0.0; lca(0.0.1,0.3)=0;
  // lca(0.2,0.0.2)=0; lca(0.2,0.3)=0. All LCAs = {0, 0.0}; SLCA = {0.0}.
  EXPECT_EQ(Strings(BruteForceAllLca({s1, s2})),
            (std::vector<std::string>{"0", "0.0"}));
  EXPECT_EQ(Strings(BruteForceSlca({s1, s2})),
            (std::vector<std::string>{"0.0"}));
}

}  // namespace
}  // namespace xksearch
