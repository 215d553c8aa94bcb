#include "storage/disk_index.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "gen/dblp_generator.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;

// Builds a small deterministic inverted index by hand.
InvertedIndex MakeSmallIndex() {
  InvertedIndex index;
  for (const DeweyId& id : Ids({"0.0.1", "0.1.2", "0.3.0.1"})) {
    index.AddPosting("apple", id);
  }
  for (const DeweyId& id : Ids({"0.1.0", "0.2"})) {
    index.AddPosting("banana", id);
  }
  index.AddPosting("cherry", Id("0.5.5.5"));
  return index;
}

DiskIndexOptions MemOptions() {
  DiskIndexOptions opts;
  opts.in_memory = true;
  return opts;
}

TEST(DiskIndexTest, DictionaryMatchesSource) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->term_count(), 3u);
  EXPECT_EQ((*index)->total_postings(), 6u);
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  ASSERT_NE(apple, nullptr);
  EXPECT_EQ(apple->frequency, 3u);
  EXPECT_EQ((*index)->FindTerm("durian"), nullptr);
}

TEST(DiskIndexTest, PostingCursorStreamsFullList) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  ASSERT_NE(apple, nullptr);
  Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(apple->id);
  ASSERT_TRUE(cursor.ok());
  std::vector<DeweyId> got;
  DeweyId id;
  while (cursor->Next(&id)) got.push_back(id);
  XKS_ASSERT_OK(cursor->status());
  EXPECT_EQ(got, src.Materialize("apple"));
}

TEST(DiskIndexTest, RightAndLeftMatchAgreeWithBinarySearch) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  const std::vector<DeweyId> list = src.Materialize("apple");

  const auto probes =
      Ids({"0", "0.0", "0.0.1", "0.0.1.0", "0.1", "0.1.2", "0.2", "0.3.0.1",
           "0.3.0.2", "0.9", "0.0.0"});
  DiskIndex::MatchProbe scratch;
  for (const DeweyId& probe : probes) {
    DeweyId got;
    Result<bool> rm = (*index)->RightMatch(apple->id, probe, &scratch, &got);
    ASSERT_TRUE(rm.ok());
    auto lb = std::lower_bound(list.begin(), list.end(), probe);
    EXPECT_EQ(*rm, lb != list.end()) << probe.ToString();
    if (*rm) {
      EXPECT_EQ(got, *lb) << probe.ToString();
    }

    Result<bool> lm = (*index)->LeftMatch(apple->id, probe, &scratch, &got);
    ASSERT_TRUE(lm.ok());
    // Last element <= probe.
    auto ub = std::upper_bound(list.begin(), list.end(), probe);
    EXPECT_EQ(*lm, ub != list.begin()) << probe.ToString();
    if (*lm) {
      EXPECT_EQ(got, *(ub - 1)) << probe.ToString();
    }
  }
}

TEST(DiskIndexTest, MatchDoesNotLeakAcrossTerms) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  // banana ends at 0.2; a right-match beyond it must not return cherry's
  // postings even though they follow in the composite key space.
  const DiskIndex::TermInfo* banana = (*index)->FindTerm("banana");
  DiskIndex::MatchProbe scratch;
  DeweyId got;
  Result<bool> rm =
      (*index)->RightMatch(banana->id, Id("0.4"), &scratch, &got);
  ASSERT_TRUE(rm.ok());
  EXPECT_FALSE(*rm);
  // cherry starts at 0.5.5.5; a left-match before it must not return
  // banana's postings.
  const DiskIndex::TermInfo* cherry = (*index)->FindTerm("cherry");
  Result<bool> lm =
      (*index)->LeftMatch(cherry->id, Id("0.1"), &scratch, &got);
  ASSERT_TRUE(lm.ok());
  EXPECT_FALSE(*lm);
}

TEST(DiskIndexTest, LargeListSpansManyBlocks) {
  InvertedIndex src;
  std::vector<DeweyId> expected;
  for (uint32_t i = 0; i < 20000; ++i) {
    DeweyId id({0, i / 100, i % 100, 3});
    src.AddPosting("big", id);
    expected.push_back(id);
  }
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_GT((*index)->scan_page_count(), 3u);

  const DiskIndex::TermInfo* big = (*index)->FindTerm("big");
  Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(big->id);
  ASSERT_TRUE(cursor.ok());
  std::vector<DeweyId> got;
  DeweyId id;
  while (cursor->Next(&id)) got.push_back(id);
  XKS_ASSERT_OK(cursor->status());
  EXPECT_EQ(got, expected);

  // Random probes across block boundaries.
  Rng rng(12);
  DiskIndex::MatchProbe scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const DeweyId probe(
        {0, static_cast<uint32_t>(rng.Uniform(210)),
         static_cast<uint32_t>(rng.Uniform(110))});
    DeweyId got_rm;
    Result<bool> rm = (*index)->RightMatch(big->id, probe, &scratch, &got_rm);
    ASSERT_TRUE(rm.ok());
    auto lb = std::lower_bound(expected.begin(), expected.end(), probe);
    ASSERT_EQ(*rm, lb != expected.end());
    if (*rm) {
      EXPECT_EQ(got_rm, *lb);
    }
  }
}

TEST(DiskIndexTest, ColdAndHotCacheAccounting) {
  InvertedIndex src;
  for (uint32_t i = 0; i < 5000; ++i) {
    src.AddPosting("kw", DeweyId({0, i / 64, i % 64}));
  }
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  DiskIndex& di = **index;

  QueryStats cold;
  XKS_ASSERT_OK(di.DropCaches());
  const DiskIndex::TermInfo* kw = di.FindTerm("kw");
  Result<DiskIndex::PostingCursor> cursor = di.OpenPostings(kw->id, &cold);
  ASSERT_TRUE(cursor.ok());
  DeweyId id;
  size_t n = 0;
  while (cursor->Next(&id)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_GT(cold.page_reads, 0u);

  // Hot: same scan over a warm pool costs no reads.
  QueryStats hot;
  Result<DiskIndex::PostingCursor> cursor2 = di.OpenPostings(kw->id, &hot);
  ASSERT_TRUE(cursor2.ok());
  n = 0;
  while (cursor2->Next(&id)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_EQ(hot.page_reads, 0u);
  EXPECT_GT(hot.page_hits, 0u);
}

TEST(DiskIndexTest, FileBackedBuildAndReopen) {
  const std::string prefix = ::testing::TempDir() + "/disk_index_files";
  InvertedIndex src = MakeSmallIndex();
  {
    DiskIndexOptions opts;  // file-backed
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(src, prefix, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ((*built)->term_count(), 3u);
  }
  {
    Result<std::unique_ptr<DiskIndex>> opened = DiskIndex::Open(prefix);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ((*opened)->term_count(), 3u);
    const DiskIndex::TermInfo* apple = (*opened)->FindTerm("apple");
    ASSERT_NE(apple, nullptr);
    DiskIndex::MatchProbe scratch;
    DeweyId got;
    Result<bool> rm =
        (*opened)->RightMatch(apple->id, Id("0"), &scratch, &got);
    ASSERT_TRUE(rm.ok());
    EXPECT_TRUE(*rm);
    EXPECT_EQ(got, Id("0.0.1"));
  }
  for (const char* suffix : {".il", ".scan", ".dict"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(DiskIndexTest, UncompressedVariantsBehaveIdentically) {
  InvertedIndex src = MakeSmallIndex();
  DiskIndexOptions plain = MemOptions();
  plain.compress_dewey = false;
  plain.delta_compress = false;
  Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Build(src, "", plain);
  ASSERT_TRUE(index.ok());
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(apple->id);
  ASSERT_TRUE(cursor.ok());
  std::vector<DeweyId> got;
  DeweyId id;
  while (cursor->Next(&id)) got.push_back(id);
  EXPECT_EQ(got, src.Materialize("apple"));
}

TEST(DiskIndexTest, CompressionShrinksIndex) {
  DblpOptions gen;
  gen.papers = 3000;
  gen.plants.push_back({"planted", 500});
  Result<Document> doc = GenerateDblp(gen);
  ASSERT_TRUE(doc.ok());
  InvertedIndex src = InvertedIndex::Build(*doc);

  Result<std::unique_ptr<DiskIndex>> compressed =
      DiskIndex::Build(src, "", MemOptions());
  DiskIndexOptions plain_opts = MemOptions();
  plain_opts.compress_dewey = false;
  plain_opts.delta_compress = false;
  Result<std::unique_ptr<DiskIndex>> plain =
      DiskIndex::Build(src, "", plain_opts);
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_LT((*compressed)->il_page_count(), (*plain)->il_page_count());
  EXPECT_LE((*compressed)->scan_page_count(), (*plain)->scan_page_count());
}

TEST(DiskIndexTest, OpenInMemoryRejected) {
  EXPECT_TRUE(DiskIndex::Open("", MemOptions()).status().IsInvalidArgument());
}

TEST(DiskIndexTest, EmptyIndexBuilds) {
  InvertedIndex empty;
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(empty, "", MemOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->term_count(), 0u);
}

}  // namespace
}  // namespace xksearch
