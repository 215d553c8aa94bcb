#include "engine/xksearch.h"

#include <string>
#include <vector>

#include <algorithm>

#include "engine/disk_searcher.h"
#include "gen/school.h"
#include "gtest/gtest.h"
#include "slca/brute_force.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Strings;

// The disk engine over `system`'s index, on an in-memory page store.
std::unique_ptr<DiskSearcher> MemDisk(const XKSearch& system) {
  DiskIndexOptions options;
  options.in_memory = true;
  Result<std::unique_ptr<DiskSearcher>> disk =
      DiskSearcher::Build(system, "", options);
  EXPECT_TRUE(disk.ok()) << disk.status().ToString();
  return disk.ok() ? disk.MoveValueUnsafe() : nullptr;
}

TEST(XKSearchTest, BuildFromXmlAndSearch) {
  Result<std::unique_ptr<XKSearch>> system = XKSearch::BuildFromXml(
      "<lib><book><title>databases</title><author>smith</author></book>"
      "<book><title>compilers</title><author>smith</author></book></lib>");
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  Result<SearchResult> result = (*system)->Search({"databases", "smith"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->nodes.size(), 1u);
  // The first book contains both.
  EXPECT_EQ(result->nodes[0], Id("0.0"));
}

TEST(XKSearchTest, PaperWalkthroughOnSchool) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  Result<SearchResult> result = (*system)->Search({"John", "Ben"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 3u);
  // Results in document order; snippets render the answer subtrees.
  for (const DeweyId& node : result->nodes) {
    Result<std::string> snippet = (*system)->Snippet(node);
    ASSERT_TRUE(snippet.ok());
    EXPECT_NE(snippet->find("John"), std::string::npos);
    EXPECT_NE(snippet->find("Ben"), std::string::npos);
  }
}

TEST(XKSearchTest, KeywordsAreNormalized) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  Result<SearchResult> lower = (*system)->Search({"john", "ben"});
  Result<SearchResult> mixed = (*system)->Search({"JOHN", "Ben!"});
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(Strings(lower->nodes), Strings(mixed->nodes));
  EXPECT_EQ((*system)->Frequency("JOHN"), 4u);
}

TEST(XKSearchTest, MissingKeywordGivesEmptyResult) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  Result<SearchResult> result = (*system)->Search({"john", "zzzzz"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nodes.empty());
}

TEST(XKSearchTest, InvalidQueriesRejected) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  EXPECT_TRUE((*system)->Search({}).status().IsInvalidArgument());
  EXPECT_TRUE((*system)->Search({"!!!"}).status().IsInvalidArgument());
}

TEST(XKSearchTest, AutoSelectionFollowsFrequencyRatio) {
  // john:4 vs a word with frequency 1 -> ratio 4 < 8 default? Use a
  // custom threshold to exercise both sides.
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  SearchOptions low;
  low.auto_ratio_threshold = 2.0;
  Result<SearchResult> r1 = (*system)->Search({"john", "robotics"}, low);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->algorithm, SlcaAlgorithm::kIndexedLookupEager);

  SearchOptions high;
  high.auto_ratio_threshold = 100.0;
  Result<SearchResult> r2 = (*system)->Search({"john", "ben"}, high);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->algorithm, SlcaAlgorithm::kScanEager);
}

TEST(XKSearchTest, ExplicitAlgorithmChoiceHonored) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  for (auto [choice, expected] :
       {std::pair{AlgorithmChoice::kIndexedLookupEager,
                  SlcaAlgorithm::kIndexedLookupEager},
        std::pair{AlgorithmChoice::kScanEager, SlcaAlgorithm::kScanEager},
        std::pair{AlgorithmChoice::kStack, SlcaAlgorithm::kStack}}) {
    SearchOptions options;
    options.algorithm = choice;
    Result<SearchResult> result = (*system)->Search({"john", "ben"}, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->algorithm, expected);
    EXPECT_EQ(result->nodes.size(), 3u);
  }
}

TEST(XKSearchTest, KeywordsReorderedByFrequency) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  // mary (2) is rarer than john (4).
  Result<SearchResult> result = (*system)->Search({"john", "mary"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->keywords.size(), 2u);
  EXPECT_EQ(result->keywords[0], "mary");
  EXPECT_EQ(result->keywords[1], "john");
}

// The two engines share one execution body and differ only in their
// lists: for every algorithm choice and semantics, the disk engine built
// from an XKSearch must give the same answers, run the same algorithm and
// count the same Table 1 operations.
TEST(XKSearchTest, DiskAndMemoryAgree) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const std::unique_ptr<DiskSearcher> disk = MemDisk(**system);
  ASSERT_NE(disk, nullptr);
  const std::vector<std::vector<std::string>> queries = {
      {"john", "ben"}, {"john", "mary"}, {"class", "john", "ben"},
      {"john", "nothere"}};
  for (auto choice : {AlgorithmChoice::kAuto,
                      AlgorithmChoice::kIndexedLookupEager,
                      AlgorithmChoice::kScanEager, AlgorithmChoice::kStack}) {
    for (auto semantics :
         {Semantics::kSlca, Semantics::kElca, Semantics::kAllLca}) {
      for (const std::vector<std::string>& query : queries) {
        SearchOptions options;
        options.algorithm = choice;
        options.semantics = semantics;
        Result<SearchResult> m = (*system)->Search(query, options);
        Result<SearchResult> d = disk->Search(query, options);
        ASSERT_TRUE(m.ok()) << m.status().ToString();
        ASSERT_TRUE(d.ok()) << d.status().ToString();
        SCOPED_TRACE(::testing::Message()
                     << query[0] << "," << query[1] << " choice "
                     << static_cast<int>(choice) << " semantics "
                     << static_cast<int>(semantics));
        EXPECT_EQ(Strings(m->nodes), Strings(d->nodes));
        EXPECT_EQ(m->algorithm, d->algorithm);
        EXPECT_EQ(m->keywords, d->keywords);
        EXPECT_EQ(m->stats.match_ops, d->stats.match_ops);
        EXPECT_EQ(m->stats.results, d->stats.results);
      }
    }
  }
}

TEST(XKSearchTest, DiskQueriesCountPageReads) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  const std::unique_ptr<DiskSearcher> disk = MemDisk(**system);
  ASSERT_NE(disk, nullptr);
  XKS_ASSERT_OK(disk->index()->DropCaches());
  Result<SearchResult> cold = disk->Search({"john", "ben"});
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold.ValueOrDie().stats.page_reads, 0u);
  Result<SearchResult> hot = disk->Search({"john", "ben"});
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.ValueOrDie().stats.page_reads, 0u);
}

TEST(XKSearchTest, AllLcaMode) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  SearchOptions lca;
  lca.semantics = Semantics::kAllLca;
  Result<SearchResult> all = (*system)->Search({"john", "ben"}, lca);
  ASSERT_TRUE(all.ok());
  Result<std::vector<DeweyId>> expected =
      OracleAllLca((*system)->document(), (*system)->index(), {"john", "ben"});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Strings(all->nodes), Strings(*expected));
}

TEST(XKSearchTest, StreamingDeliversInOrder) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  std::vector<DeweyId> streamed;
  Result<SearchResult> result = (*system)->SearchStreaming(
      {"john", "ben"}, {}, [&](const DeweyId& id) { streamed.push_back(id); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(streamed.size(), 3u);
  EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end()));
}

TEST(XKSearchTest, SnippetTruncation) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  Result<std::string> full = (*system)->Snippet(Id("0"));
  ASSERT_TRUE(full.ok());
  Result<std::string> truncated = (*system)->Snippet(Id("0"), 50);
  ASSERT_TRUE(truncated.ok());
  EXPECT_LT(truncated->size(), full->size());
  EXPECT_NE(truncated->find("<truncated/>"), std::string::npos);
  EXPECT_TRUE((*system)->Snippet(Id("0.99")).status().IsNotFound());
}

TEST(XKSearchTest, ExplainReportsPlanAndCosts) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  Result<std::string> report = (*system)->Explain({"john", "mary"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Frequency-ordered lists, chosen algorithm, prediction and counters.
  EXPECT_NE(report->find("mary(|S1|=2)"), std::string::npos) << *report;
  EXPECT_NE(report->find("john(|S2|=4)"), std::string::npos);
  EXPECT_NE(report->find("algorithm:"), std::string::npos);
  EXPECT_NE(report->find("predicted (Table 1)"), std::string::npos);
  EXPECT_NE(report->find("match_ops = 2(k-1)|S1| = 4"), std::string::npos);
  EXPECT_NE(report->find("measured:"), std::string::npos);
  EXPECT_NE(report->find("results:"), std::string::npos);

  SearchOptions stack;
  stack.algorithm = AlgorithmChoice::kStack;
  Result<std::string> stack_report =
      (*system)->Explain({"john", "mary"}, stack);
  ASSERT_TRUE(stack_report.ok());
  EXPECT_NE(stack_report->find("sum|Si| = 6"), std::string::npos)
      << *stack_report;
}

TEST(XKSearchTest, BuildRejectsBadXml) {
  EXPECT_TRUE(XKSearch::BuildFromXml("<oops>").status().IsParseError());
}

TEST(XKSearchTest, FileDiskIndexRequiresPrefix) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  // File mode (the default) but no prefix.
  EXPECT_TRUE(DiskSearcher::Build(**system, "", DiskIndexOptions())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace xksearch
