#include "engine/disk_searcher.h"

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "gen/dblp_generator.h"
#include "gen/random_tree.h"
#include "gen/school.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Strings;

// Builds the engine over `doc` and writes its disk index to `prefix`
// (optionally with the document beside it). Returns the engine.
std::unique_ptr<XKSearch> BuildWithDiskIndex(
    Document doc, const std::string& prefix,
    const XKSearch::BuildOptions& build = {}, bool persist_document = false) {
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(doc), build);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  if (!system.ok()) return nullptr;
  const Status written = DiskSearcher::Build(**system, prefix,
                                             DiskIndexOptions(),
                                             persist_document)
                             .status();
  EXPECT_TRUE(written.ok()) << written.ToString();
  return written.ok() ? system.MoveValueUnsafe() : nullptr;
}

class DiskSearcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = testing_util::UniqueTempPrefix("disk_searcher_idx");
    system_ = BuildWithDiskIndex(BuildSchoolDocument(), prefix_);
    ASSERT_NE(system_, nullptr);
  }

  void TearDown() override {
    for (const char* suffix : {".il", ".scan", ".dict"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  std::string prefix_;
  std::unique_ptr<XKSearch> system_;
};

TEST_F(DiskSearcherTest, ReopenedIndexAnswersQueries) {
  // Drop the full engine; only the files remain.
  system_.reset();
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  Result<SearchResult> result = (*searcher)->Search({"John", "Ben"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Strings(result->nodes),
            (std::vector<std::string>{"0.0.0", "0.0.1", "0.1.0.1"}));
  EXPECT_EQ((*searcher)->Frequency("john"), 4u);
  EXPECT_EQ((*searcher)->Frequency("nothere"), 0u);
}

TEST_F(DiskSearcherTest, AgreesWithFullEngineOnAllSemantics) {
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix_);
  ASSERT_TRUE(searcher.ok());
  for (Semantics semantics :
       {Semantics::kSlca, Semantics::kElca, Semantics::kAllLca}) {
    SearchOptions options;
    options.semantics = semantics;
    Result<SearchResult> expected = system_->Search({"john", "ben"}, options);
    Result<SearchResult> got = (*searcher)->Search({"john", "ben"}, options);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Strings(got->nodes), Strings(expected->nodes))
        << static_cast<int>(semantics);
  }
}

TEST_F(DiskSearcherTest, MissingKeywordAndErrors) {
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix_);
  ASSERT_TRUE(searcher.ok());
  Result<SearchResult> empty = (*searcher)->Search({"john", "qqq"});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->nodes.empty());
  EXPECT_TRUE((*searcher)->Search({}).status().IsInvalidArgument());
  EXPECT_TRUE((*searcher)->Search({"..."}).status().IsInvalidArgument());
}

TEST_F(DiskSearcherTest, OpenMissingFilesFails) {
  EXPECT_TRUE(DiskSearcher::Open(::testing::TempDir() + "/no_such_prefix")
                  .status()
                  .IsIoError());
}

TEST_F(DiskSearcherTest, StatsCountDiskWork) {
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix_);
  ASSERT_TRUE(searcher.ok());
  Result<SearchResult> result = (*searcher)->Search({"john", "ben"});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.page_reads + result->stats.page_hits, 0u);
}

TEST(DiskSearcherRandomTest, ParityWithEngineOnRandomDocuments) {
  const std::string prefix = ::testing::TempDir() + "/disk_searcher_rand";
  Rng rng(808);
  RandomTreeOptions options;
  options.node_count = 600;
  options.vocab_size = 5;
  for (int round = 0; round < 5; ++round) {
    const std::unique_ptr<XKSearch> system =
        BuildWithDiskIndex(GenerateRandomDocument(&rng, options), prefix);
    ASSERT_NE(system, nullptr);
    Result<std::unique_ptr<DiskSearcher>> searcher =
        DiskSearcher::Open(prefix);
    ASSERT_TRUE(searcher.ok());
    const std::vector<std::string> vocab = RandomTreeVocabulary(options);
    for (int q = 0; q < 5; ++q) {
      const std::vector<std::string> query = {
          vocab[rng.Uniform(vocab.size())], vocab[rng.Uniform(vocab.size())]};
      Result<SearchResult> expected = system->Search(query);
      Result<SearchResult> got = (*searcher)->Search(query);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Strings(got->nodes), Strings(expected->nodes));
    }
  }
  for (const char* suffix : {".il", ".scan", ".dict"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(DiskSearcherTokenizerTest, CaseSensitiveIndexNormalizesConsistently) {
  // Build a case-sensitive index; the persisted tokenizer options must
  // make the reopened searcher treat "John" and "john" as different.
  const std::string prefix = ::testing::TempDir() + "/disk_searcher_case";
  XKSearch::BuildOptions build;
  build.index.tokenizer.lowercase = false;
  ASSERT_NE(BuildWithDiskIndex(BuildSchoolDocument(), prefix, build), nullptr);

  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix);
  ASSERT_TRUE(searcher.ok());
  // The document says "John"; a case-sensitive index has no "john".
  EXPECT_EQ((*searcher)->Frequency("John"), 4u);
  EXPECT_EQ((*searcher)->Frequency("john"), 0u);
  Result<SearchResult> hit = (*searcher)->Search({"John", "Ben"});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->nodes.size(), 3u);
  Result<SearchResult> miss = (*searcher)->Search({"john", "ben"});
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->nodes.empty());
  for (const char* suffix : {".il", ".scan", ".dict"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(DiskSearcherSnippetTest, PersistedDocumentEnablesSnippets) {
  const std::string prefix = ::testing::TempDir() + "/disk_searcher_snip";
  ASSERT_NE(BuildWithDiskIndex(BuildSchoolDocument(), prefix, {},
                               /*persist_document=*/true),
            nullptr);

  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_TRUE((*searcher)->has_document());
  Result<SearchResult> result = (*searcher)->Search({"john", "ben"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->nodes.empty());
  Result<std::string> snippet = (*searcher)->Snippet(result->nodes[0]);
  ASSERT_TRUE(snippet.ok()) << snippet.status().ToString();
  EXPECT_NE(snippet->find("John"), std::string::npos);
  EXPECT_NE(snippet->find("Ben"), std::string::npos);
  // Truncation works through the same path.
  Result<std::string> cut = (*searcher)->Snippet(result->nodes[0], 20);
  ASSERT_TRUE(cut.ok());
  EXPECT_LT(cut->size(), snippet->size() + 16);
  for (const char* suffix : {".il", ".scan", ".dict", ".xml"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(DiskSearcherSnippetTest, WithoutPersistedDocumentNotSupported) {
  const std::string prefix = ::testing::TempDir() + "/disk_searcher_nosnip";
  ASSERT_NE(BuildWithDiskIndex(BuildSchoolDocument(), prefix), nullptr);

  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix);
  ASSERT_TRUE(searcher.ok());
  EXPECT_FALSE((*searcher)->has_document());
  EXPECT_TRUE((*searcher)
                  ->Snippet(testing_util::Id("0"))
                  .status()
                  .IsNotSupported());
  for (const char* suffix : {".il", ".scan", ".dict"}) {
    std::remove((prefix + suffix).c_str());
  }
}

// persist_document on an in-memory store is rejected before any work: no
// page store is created and no file is written.
TEST(DiskSearcherSnippetTest, PersistRequiresFileBackedIndex) {
  const std::string prefix =
      testing_util::UniqueTempPrefix("disk_searcher_persist_mem");
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(BuildSchoolDocument());
  ASSERT_TRUE(system.ok());
  DiskIndexOptions options;
  options.in_memory = true;
  int stores = 0;
  options.store_decorator = [&stores](std::unique_ptr<PageStore> store,
                                      std::string_view /*name*/) {
    ++stores;
    return store;
  };
  EXPECT_TRUE(DiskSearcher::Build(**system, prefix, options,
                                  /*persist_document=*/true)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(stores, 0);
  for (const char* suffix : {".xml", ".scan", ".dict", ".il", ".wal"}) {
    EXPECT_FALSE(std::filesystem::exists(prefix + suffix)) << suffix;
  }
}

// Table 1 counters of disk Indexed Lookup Eager and kAuto queries on a
// multi-block index, cold (pool dropped) and then warm. The values are
// those of the two-search block probe that the single floor-and-ceiling
// search replaced, which descends for the same targets; any change in
// when a probe descends, or in what it charges, shows up here.
struct GoldenCounters {
  std::vector<std::string> keywords;
  AlgorithmChoice algorithm;
  SlcaAlgorithm ran;
  uint64_t results, match_ops, dewey_comparisons, postings_read;
  uint64_t cold_page_reads, cold_page_hits, warm_page_reads, warm_page_hits;
};

std::string Describe(const std::vector<std::string>& keywords,
                     const QueryStats& cold, const QueryStats& warm) {
  std::string out;
  for (const std::string& k : keywords) out += k + " ";
  return out + "cold{" + cold.ToString() + "} warm{" + warm.ToString() + "}";
}

TEST(DiskProbeCountersTest, IndexedLookupAndAutoCountersArePinned) {
  DblpOptions gen;
  gen.papers = 12000;
  gen.seed = 2405;
  gen.plants = {{"pten", 10},       {"phundred", 100}, {"pthousand", 1000},
                {"pbig", 10000},    {"pbigger", 11000}};
  Result<Document> doc = GenerateDblp(gen);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(doc).ValueOrDie());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  DiskIndexOptions disk_options;
  disk_options.in_memory = true;
  disk_options.pool_shards = 1;
  Result<std::unique_ptr<DiskSearcher>> searcher =
      DiskSearcher::Build(**system, "", disk_options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  DiskIndex* disk = (*searcher)->index();
  ASSERT_GT(disk->scan_page_count(), 40u);

  using A = AlgorithmChoice;
  using S = SlcaAlgorithm;
  const std::vector<GoldenCounters> golden = {
      // clang-format off
      {{"pten", "pbig"}, A::kIndexedLookupEager, S::kIndexedLookupEager,
       10, 20, 20, 30, 10, 12, 0, 22},
      {{"phundred", "pbig", "pbigger"}, A::kIndexedLookupEager,
       S::kIndexedLookupEager, 91, 400, 299, 500, 33, 63, 0, 96},
      {{"pthousand", "pbig", "pbigger"}, A::kIndexedLookupEager,
       S::kIndexedLookupEager, 763, 4000, 3779, 4999, 35, 79, 0, 114},
      {{"pthousand", "pbigger"}, A::kAuto, S::kIndexedLookupEager,
       916, 2000, 3779, 3000, 20, 33, 0, 53},
      {{"phundred", "pthousand", "pbig"}, A::kAuto, S::kIndexedLookupEager,
       80, 400, 299, 500, 20, 38, 0, 58},
      {{"pbig", "pbigger"}, A::kAuto, S::kScanEager,
       9175, 20000, 151040, 21000, 34, 4, 0, 38},
      // clang-format on
  };
  for (const GoldenCounters& want : golden) {
    SearchOptions options;
    options.algorithm = want.algorithm;
    XKS_ASSERT_OK(disk->DropCaches());
    Result<SearchResult> cold = (*searcher)->Search(want.keywords, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    Result<SearchResult> warm = (*searcher)->Search(want.keywords, options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    SCOPED_TRACE(Describe(want.keywords, cold->stats, warm->stats));
    Result<SearchResult> memory = (*system)->Search(want.keywords, options);
    ASSERT_TRUE(memory.ok());
    EXPECT_EQ(Strings(cold->nodes), Strings(memory->nodes));
    EXPECT_EQ(Strings(warm->nodes), Strings(memory->nodes));
    EXPECT_EQ(cold->algorithm, want.ran);
    EXPECT_EQ(cold->stats.results, want.results);
    EXPECT_EQ(cold->stats.match_ops, want.match_ops);
    EXPECT_EQ(cold->stats.dewey_comparisons, want.dewey_comparisons);
    EXPECT_EQ(cold->stats.postings_read, want.postings_read);
    EXPECT_EQ(cold->stats.page_reads, want.cold_page_reads);
    EXPECT_EQ(cold->stats.page_hits, want.cold_page_hits);
    // A warm run repeats every counter except where the pages came from.
    EXPECT_EQ(warm->stats.match_ops, want.match_ops);
    EXPECT_EQ(warm->stats.dewey_comparisons, want.dewey_comparisons);
    EXPECT_EQ(warm->stats.postings_read, want.postings_read);
    EXPECT_EQ(warm->stats.page_reads, want.warm_page_reads);
    EXPECT_EQ(warm->stats.page_hits, want.warm_page_hits);
  }
}

}  // namespace
}  // namespace xksearch
