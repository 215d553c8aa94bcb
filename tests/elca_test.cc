#include "slca/elca.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/xksearch.h"
#include "gen/random_tree.h"
#include "gen/school.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "slca/brute_force.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Ids;
using testing_util::Strings;

std::vector<DeweyId> RunElca(const std::vector<std::vector<DeweyId>>& lists,
                             QueryStats* stats = nullptr) {
  QueryStats local;
  if (stats == nullptr) stats = &local;
  std::vector<std::unique_ptr<KeywordList>> owned;
  std::vector<KeywordList*> ptrs;
  for (const auto& list : lists) {
    owned.push_back(std::make_unique<VectorKeywordList>(&list, stats));
    ptrs.push_back(owned.back().get());
  }
  Result<std::vector<DeweyId>> got = ComputeElcaList(ptrs, {}, stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return got.ok() ? got.ValueOrDie() : std::vector<DeweyId>{};
}

TEST(ElcaTest, SlcasAreAlwaysElcas) {
  // Two disjoint answers: the root has no fresh witnesses of its own.
  const auto s1 = Ids({"0.1.0", "0.2.0"});
  const auto s2 = Ids({"0.1.1", "0.2.1"});
  EXPECT_EQ(Strings(RunElca({s1, s2})),
            (std::vector<std::string>{"0.1", "0.2"}));
}

TEST(ElcaTest, AncestorWithFreshWitnessesQualifies) {
  // 0.1 is an SLCA; the root holds additional occurrences of BOTH
  // keywords outside subtree(0.1), so the root is an ELCA too.
  const auto s1 = Ids({"0.1.0", "0.2"});
  const auto s2 = Ids({"0.1.1", "0.3"});
  EXPECT_EQ(Strings(RunElca({s1, s2})),
            (std::vector<std::string>{"0", "0.1"}));
}

TEST(ElcaTest, AncestorWithOnlyOneFreshKeywordDoesNot) {
  // The root sees a fresh s1 occurrence (0.2) but every s2 occurrence is
  // absorbed by the covering node 0.1 -> root is an LCA but not an ELCA.
  const auto s1 = Ids({"0.1.0", "0.2"});
  const auto s2 = Ids({"0.1.1"});
  EXPECT_EQ(Strings(RunElca({s1, s2})), (std::vector<std::string>{"0.1"}));
  // ...while All-LCA keeps the root.
  EXPECT_EQ(Strings(BruteForceAllLca({s1, s2})),
            (std::vector<std::string>{"0", "0.1"}));
}

TEST(ElcaTest, NestedCoveringNodes) {
  // 0.1.1 covers both; 0.1 holds fresh occurrences of both keywords
  // (0.1.0 for s1 via... construct: s1 at 0.1.0 and 0.1.1.0; s2 at
  // 0.1.2 and 0.1.1.1). 0.1.1 is an SLCA/ELCA; 0.1 keeps 0.1.0 and
  // 0.1.2 as fresh witnesses -> ELCA as well; the root gets nothing.
  const auto s1 = Ids({"0.1.0", "0.1.1.0"});
  const auto s2 = Ids({"0.1.1.1", "0.1.2"});
  EXPECT_EQ(Strings(RunElca({s1, s2})),
            (std::vector<std::string>{"0.1", "0.1.1"}));
}

TEST(ElcaTest, SingleKeyword) {
  // Every occurrence node is covering; an ancestor occurrence keeps its
  // own (at-self) witness, so for k=1 ELCA = the whole list.
  const auto s1 = Ids({"0.1", "0.1.2", "0.3"});
  EXPECT_EQ(Strings(RunElca({s1})),
            (std::vector<std::string>{"0.1", "0.1.2", "0.3"}));
}

TEST(ElcaTest, EmptyListYieldsNothing) {
  EXPECT_TRUE(RunElca({Ids({"0.1"}), {}}).empty());
}

TEST(ElcaTest, DuplicateOccurrencesOnOneNodeCountOnce) {
  // Keyword lists are sets of nodes; a node appears once per list.
  const auto s1 = Ids({"0.1.0"});
  const auto s2 = Ids({"0.1.0"});
  EXPECT_EQ(Strings(RunElca({s1, s2})), (std::vector<std::string>{"0.1.0"}));
}

TEST(ElcaTest, SchoolClassesIsNotAnElca) {
  // <classes> contains john+ben only through the two class answers, so
  // it is an All-LCA but not an ELCA; the school root holds the fresh
  // baseball pair... which is itself covering, so the root is not an
  // ELCA either.
  Document doc = BuildSchoolDocument();
  InvertedIndex index = InvertedIndex::Build(doc);
  const std::vector<std::vector<DeweyId>> lists = {index.Materialize("john"),
                                                   index.Materialize("ben")};
  const std::vector<DeweyId> elcas = RunElca(lists);
  Result<std::vector<DeweyId>> expected =
      OracleElca(doc, index, {"john", "ben"});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Strings(elcas), Strings(*expected));
  // Here ELCA coincides with SLCA: every non-smallest LCA has all its
  // witnesses absorbed.
  Result<std::vector<DeweyId>> slcas = OracleSlca(doc, index, {"john", "ben"});
  ASSERT_TRUE(slcas.ok());
  EXPECT_EQ(Strings(elcas), Strings(*slcas));
}

TEST(ElcaTest, SemanticsNestOnRandomDocuments) {
  Rng rng(555);
  RandomTreeOptions options;
  options.node_count = 400;
  options.vocab_size = 4;
  for (int round = 0; round < 20; ++round) {
    const Document doc = GenerateRandomDocument(&rng, options);
    InvertedIndex index = InvertedIndex::Build(doc);
    const std::vector<std::string> vocab = RandomTreeVocabulary(options);
    std::vector<std::vector<DeweyId>> lists;
    for (int i = 0; i < 2 + static_cast<int>(rng.Uniform(2)); ++i) {
      lists.push_back(index.Materialize(vocab[rng.Uniform(vocab.size())]));
    }
    const TreeOracle oracle(doc, lists);
    const std::vector<DeweyId> slca = oracle.Slca();
    const std::vector<DeweyId> elca = oracle.Elca();
    const std::vector<DeweyId> lca = oracle.AllLca();

    // The algorithm agrees with the oracle.
    EXPECT_EQ(Strings(RunElca(lists)), Strings(elca)) << "round " << round;

    // slca ⊆ elca ⊆ lca (all three sorted).
    EXPECT_TRUE(std::includes(elca.begin(), elca.end(), slca.begin(),
                              slca.end()));
    EXPECT_TRUE(
        std::includes(lca.begin(), lca.end(), elca.begin(), elca.end()));
  }
}

TEST(ElcaTest, EngineSemanticsMode) {
  Result<std::unique_ptr<XKSearch>> system = XKSearch::BuildFromXml(
      "<r><a><x>p q</x><y>p</y><z>q</z></a><b>p</b><c>q</c></r>");
  ASSERT_TRUE(system.ok());
  SearchOptions elca;
  elca.semantics = Semantics::kElca;
  Result<SearchResult> result = (*system)->Search({"p", "q"}, elca);
  ASSERT_TRUE(result.ok());
  Result<std::vector<DeweyId>> expected =
      OracleElca((*system)->document(), (*system)->index(), {"p", "q"});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Strings(result->nodes), Strings(*expected));
  // The <x> text covers both; <a> holds fresh p (in y) and q (in z);
  // the root holds fresh p (b) and q (c): three nested ELCAs.
  EXPECT_EQ(result->nodes.size(), 3u);
}

}  // namespace
}  // namespace xksearch
