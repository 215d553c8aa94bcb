#include "storage/disk_index.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

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

DeweyId Own(DeweyView v) {
  DeweyId id;
  id.AssignFrom(v);
  return id;
}

// Oracle answers for rm/lm over a sorted list.
std::optional<DeweyId> OracleRm(const std::vector<DeweyId>& list,
                                const DeweyId& v) {
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end()) return std::nullopt;
  return *it;
}

std::optional<DeweyId> OracleLm(const std::vector<DeweyId>& list,
                                const DeweyId& v) {
  auto it = std::upper_bound(list.begin(), list.end(), v);
  if (it == list.begin()) return std::nullopt;
  return *(it - 1);
}

// Probes rm and lm of `v` with `probe` and compares both to the oracle.
void ExpectMatches(const DiskIndex& index, uint32_t term,
                   const std::vector<DeweyId>& list, const DeweyId& v,
                   DiskIndex::MatchProbe* probe) {
  SCOPED_TRACE("probe " + v.ToString());
  DeweyId got;
  Result<bool> rm = index.RightMatch(term, v, probe, &got);
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  const std::optional<DeweyId> want_rm = OracleRm(list, v);
  ASSERT_EQ(*rm, want_rm.has_value());
  if (*rm) {
    EXPECT_EQ(got, *want_rm);
  }
  Result<bool> lm = index.LeftMatch(term, v, probe, &got);
  ASSERT_TRUE(lm.ok()) << lm.status().ToString();
  const std::optional<DeweyId> want_lm = OracleLm(list, v);
  ASSERT_EQ(*lm, want_lm.has_value());
  if (*lm) {
    EXPECT_EQ(got, *want_lm);
  }
}

// Two terms whose lists interleave in document order, spread over many
// small blocks of several restart groups each, built with and without
// delta coding.
class DiskIndexProbeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    for (uint32_t i = 0; i < 3000; ++i) {
      const DeweyId id({0, i / 50, (i % 50) * 2, i % 3});
      (i % 4 == 0 ? beta_ : alpha_).push_back(id);
    }
    for (const DeweyId& id : alpha_) src_.AddPosting("alpha", id);
    for (const DeweyId& id : beta_) src_.AddPosting("beta", id);
    DiskIndexOptions options = MemOptions();
    options.scan_block_bytes = 400;
    options.delta_compress = GetParam();
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(src_, "", options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = built.MoveValueUnsafe();
    alpha_id_ = index_->FindTerm("alpha")->id;
    beta_id_ = index_->FindTerm("beta")->id;
  }

  // Every posting of `list` that starts a block or a restart group.
  std::vector<DeweyId> Heads(uint32_t term, const std::vector<DeweyId>& list) {
    Result<std::vector<DiskIndex::ScanBlockRef>> refs =
        index_->ScanBlockRefs(term);
    EXPECT_TRUE(refs.ok());
    std::vector<DeweyId> heads;
    for (size_t b = 0; b < refs->size(); ++b) {
      auto begin = std::lower_bound(list.begin(), list.end(), (*refs)[b].first);
      auto end = b + 1 < refs->size()
                     ? std::lower_bound(list.begin(), list.end(),
                                        (*refs)[b + 1].first)
                     : list.end();
      for (auto it = begin; it < end; it += kScanRestartInterval) {
        heads.push_back(*it);
        if (end - it <= static_cast<long>(kScanRestartInterval)) break;
      }
    }
    return heads;
  }

  // Probe targets around `id`: itself, its first child (just after it)
  // and the id just before it at its own level, where there is one.
  static std::vector<DeweyId> Around(const DeweyId& id) {
    std::vector<DeweyId> out = {id, id.Child(0)};
    if (id.back() > 0) {
      DeweyId before = id.Parent();
      out.push_back(before.Child(id.back() - 1));
    }
    return out;
  }

  InvertedIndex src_;
  std::vector<DeweyId> alpha_, beta_;
  std::unique_ptr<DiskIndex> index_;
  uint32_t alpha_id_ = 0, beta_id_ = 0;
};

TEST_P(DiskIndexProbeTest, EveryBlockAndRestartHead) {
  Result<std::vector<DiskIndex::ScanBlockRef>> refs =
      index_->ScanBlockRefs(alpha_id_);
  ASSERT_TRUE(refs.ok());
  ASSERT_GT(refs->size(), 10u);
  const std::vector<DeweyId> heads = Heads(alpha_id_, alpha_);
  ASSERT_GT(heads.size(), 2 * refs->size());  // several groups per block
  std::vector<DeweyId> targets;
  for (const DeweyId& head : heads) {
    for (DeweyId& t : Around(head)) targets.push_back(std::move(t));
  }
  // Between blocks: just after each block's last entry.
  for (size_t b = 1; b < refs->size(); ++b) {
    auto it = std::lower_bound(alpha_.begin(), alpha_.end(), (*refs)[b].first);
    targets.push_back((it - 1)->Child(0));
  }
  // Before the term's first posting and after its last.
  targets.push_back(DeweyId({0}));
  targets.push_back(DeweyId({0, 0}));
  targets.push_back(alpha_.back().Child(0));
  targets.push_back(DeweyId({1}));
  std::sort(targets.begin(), targets.end());

  // Cold: a fresh probe per target. Warm: one probe over ascending
  // targets, as Indexed Lookup Eager issues them.
  DiskIndex::MatchProbe warm;
  for (const DeweyId& t : targets) {
    DiskIndex::MatchProbe cold;
    ExpectMatches(*index_, alpha_id_, alpha_, t, &cold);
    ExpectMatches(*index_, alpha_id_, alpha_, t, &warm);
  }
  // Descending, reusing the same probe.
  for (auto it = targets.rbegin(); it != targets.rend(); ++it) {
    ExpectMatches(*index_, alpha_id_, alpha_, *it, &warm);
  }
}

TEST_P(DiskIndexProbeTest, OneProbeAcrossTermsAndDirections) {
  Rng rng(31);
  DiskIndex::MatchProbe probe;
  for (int trial = 0; trial < 3000; ++trial) {
    const DeweyId target({0, static_cast<uint32_t>(rng.Uniform(62)),
                          static_cast<uint32_t>(rng.Uniform(101)),
                          static_cast<uint32_t>(rng.Uniform(4))});
    if (rng.Uniform(2) == 0) {
      ExpectMatches(*index_, alpha_id_, alpha_, target, &probe);
    } else {
      ExpectMatches(*index_, beta_id_, beta_, target, &probe);
    }
    if (HasFatalFailure()) return;
  }
}

TEST_P(DiskIndexProbeTest, IdsOutsideTheLevelTable) {
  // Components wider than any stored one at their level, and ids deeper
  // than the table: the key codec saturates them, the in-block search
  // compares them exactly.
  const std::vector<DeweyId> targets = {
      DeweyId({0, 7, 1000000}),       DeweyId({0, 7, 98, 2, 5, 5}),
      DeweyId({0, 59, 98, 2, 0xffffffffu}), DeweyId({0, 1000, 0}),
      DeweyId({0, 20, 40, 1000}),     DeweyId({5})};
  DiskIndex::MatchProbe warm;
  for (const DeweyId& t : targets) {
    DiskIndex::MatchProbe cold;
    ExpectMatches(*index_, alpha_id_, alpha_, t, &cold);
    ExpectMatches(*index_, beta_id_, beta_, t, &warm);
  }
}

TEST_P(DiskIndexProbeTest, ProbeChargesOnePostingPerMatch) {
  QueryStats stats;
  DiskIndex::MatchProbe probe;
  DeweyId got;
  Result<bool> lm = index_->LeftMatch(alpha_id_, DeweyId({0}), &probe, &got,
                                      &stats);
  ASSERT_TRUE(lm.ok());
  EXPECT_FALSE(*lm);
  Result<bool> rm =
      index_->RightMatch(alpha_id_, alpha_[700], &probe, &got, &stats);
  ASSERT_TRUE(rm.ok());
  ASSERT_TRUE(*rm);
  EXPECT_EQ(stats.postings_read, 1u);
  EXPECT_EQ(stats.dewey_comparisons, 0u);
  // Later probes into the same block descend no tree.
  const uint64_t pages = stats.page_hits + stats.page_reads;
  rm = index_->RightMatch(alpha_id_, alpha_[701], &probe, &got, &stats);
  ASSERT_TRUE(rm.ok());
  rm = index_->RightMatch(alpha_id_, alpha_[702], &probe, &got, &stats);
  ASSERT_TRUE(rm.ok());
  EXPECT_EQ(stats.page_hits + stats.page_reads, pages);
  EXPECT_EQ(stats.postings_read, 3u);
}

INSTANTIATE_TEST_SUITE_P(DeltaOnOff, DiskIndexProbeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "delta" : "full";
                         });

TEST(DiskIndexTest, ScanBlockPayloadGoldenBytes) {
  // 33 entries: 0.0 in full, 0.1 .. 0.31 as deltas off the previous
  // entry, then 0.32 in full as the second restart; the trailer holds
  // the restart offsets 0 and 97 and the count 2, little-endian u16s.
  ScanBlockBuilder builder;
  for (uint32_t k = 0; k <= 32; ++k) builder.Append(DeweyId({0, k}).view());
  std::vector<uint8_t> want = {0, 2, 0, 0};
  for (uint8_t k = 1; k <= 31; ++k) {
    want.insert(want.end(), {1, 1, k});
  }
  want.insert(want.end(), {0, 2, 0, 32});
  want.insert(want.end(), {0, 0, 97, 0, 2, 0});
  EXPECT_EQ(builder.SizeBytes(), want.size());
  std::string payload;
  builder.FinishTo(&payload);
  EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()), want);

  ScanBlockReader reader;
  XKS_ASSERT_OK(reader.Reset(want.data(), want.size()));
  ASSERT_EQ(reader.restart_count(), 2u);
  EXPECT_EQ(Own(reader.first()), DeweyId({0, 0}));
  DeweyView got;
  // Past the first group's last entry: the second restart's head.
  Result<bool> ceil = reader.Ceil(DeweyId({0, 31, 4}).view(), &got);
  ASSERT_TRUE(ceil.ok());
  ASSERT_TRUE(*ceil);
  EXPECT_EQ(Own(got), DeweyId({0, 32}));
  Result<bool> floor = reader.Floor(DeweyId({0, 40}).view(), &got);
  ASSERT_TRUE(floor.ok());
  ASSERT_TRUE(*floor);
  EXPECT_EQ(Own(got), DeweyId({0, 32}));
  DecodedBlock all;
  XKS_ASSERT_OK(ScanBlockReader::DecodeAll(want.data(), want.size(), &all));
  ASSERT_EQ(all.count(), 33u);
  EXPECT_EQ(Own(all.entry(17)), DeweyId({0, 17}));

  // Without delta coding every entry is in full; the offsets move.
  ScanBlockBuilder full(/*delta=*/false);
  full.Append(DeweyId({0, 1}).view());
  full.Append(DeweyId({0, 2}).view());
  payload.clear();
  full.FinishTo(&payload);
  EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()),
            (std::vector<uint8_t>{0, 2, 0, 1, 0, 2, 0, 2, 0, 0, 1, 0}));
}

TEST(DiskIndexTest, MalformedScanBlockTrailersAreCorruption) {
  ScanBlockBuilder builder;
  for (uint32_t k = 0; k < 40; ++k) builder.Append(DeweyId({0, k}).view());
  std::string payload;
  builder.FinishTo(&payload);
  const std::vector<uint8_t> good(payload.begin(), payload.end());
  ScanBlockReader reader;
  XKS_ASSERT_OK(reader.Reset(good.data(), good.size()));

  std::vector<std::vector<uint8_t>> bad;
  bad.push_back({});                                 // no trailer
  bad.push_back(std::vector<uint8_t>(good.end() - 4, good.end()));
  std::vector<uint8_t> zero_count = good;            // zero restarts
  zero_count[zero_count.size() - 2] = 0;
  bad.push_back(zero_count);
  std::vector<uint8_t> huge_count = good;            // trailer > payload
  huge_count[huge_count.size() - 1] = 0x7f;
  bad.push_back(huge_count);
  std::vector<uint8_t> past_end = good;              // offset past entries
  past_end[past_end.size() - 4] = 0xff;
  past_end[past_end.size() - 3] = 0x0f;
  bad.push_back(past_end);
  std::vector<uint8_t> mid_entry = good;             // restart not in full
  mid_entry[mid_entry.size() - 4] = 5;
  mid_entry[mid_entry.size() - 3] = 0;
  bad.push_back(mid_entry);
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    // Reset checks the trailer and the first entry; a search meets the
    // other restart heads.
    Status status = reader.Reset(bad[i].data(), bad[i].size());
    if (status.ok()) {
      DeweyView got;
      status = reader.Ceil(DeweyId({0, 39}).view(), &got).status();
    }
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
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
  // Only an empty placeholder is left where the Indexed Lookup tree was.
  EXPECT_EQ(std::filesystem::file_size(prefix + ".il"), 0u);
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

TEST(DiskIndexTest, OlderFormatIsRefused) {
  const std::string prefix = ::testing::TempDir() + "/disk_index_v2";
  ASSERT_TRUE(DiskIndex::Build(MakeSmallIndex(), prefix).ok());
  {
    // Stamp the metadata with format version 2, the two-tree layout.
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(prefix + ".scan");
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), 16);
    Result<BPlusTreeMut> tree = BPlusTreeMut::Open(&pool);
    ASSERT_TRUE(tree.ok());
    std::vector<uint8_t> meta = tree->metadata();
    ASSERT_FALSE(meta.empty());
    meta[0] = 2;
    tree->SetMetadata(meta);
    XKS_ASSERT_OK(tree->Flush());
  }
  const Status opened = DiskIndex::Open(prefix).status();
  EXPECT_TRUE(opened.IsNotSupported()) << opened.ToString();
  EXPECT_NE(opened.message().find("rebuild"), std::string::npos);
  EXPECT_TRUE(DiskIndexUpdater::Open(prefix).status().IsNotSupported());
  for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
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
  // The level table packs every block key; delta coding shrinks the
  // payloads.
  auto key_bytes = [&src](const DiskIndex& index) {
    size_t bytes = 0;
    for (const std::string& term : src.Terms()) {
      Result<std::vector<DiskIndex::ScanBlockRef>> refs =
          index.ScanBlockRefs(index.FindTerm(term)->id);
      EXPECT_TRUE(refs.ok());
      for (const DiskIndex::ScanBlockRef& ref : *refs) bytes += ref.key.size();
    }
    return bytes;
  };
  EXPECT_LT(key_bytes(**compressed), key_bytes(**plain));
  EXPECT_LT((*compressed)->scan_page_count(), (*plain)->scan_page_count());
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
