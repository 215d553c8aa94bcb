#include "slca/parallel.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/disk_searcher.h"
#include "engine/search_types.h"
#include "engine/xksearch.h"
#include "gen/random_tree.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "serve/thread_pool.h"
#include "slca/keyword_list.h"
#include "slca/packed_list.h"
#include "slca/slca.h"
#include "storage/disk_index.h"
#include "test_util.h"

namespace xksearch {
namespace {

using internal::ChunkOutput;
using internal::Stitcher;
using testing_util::Id;
using testing_util::Ids;
using testing_util::Strings;

TEST(ParallelSlcaBudgetTest, TokensAcquireAndRelease) {
  ConcurrencyBudget budget(2);
  EXPECT_EQ(budget.available(), 2u);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.available(), 0u);
  budget.Release();
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
}

TEST(ParallelSlcaBudgetTest, ZeroTokensNeverAcquire) {
  ConcurrencyBudget budget(0);
  EXPECT_FALSE(budget.TryAcquire());
  budget.Release();
  EXPECT_TRUE(budget.TryAcquire());
}

void ExpectTiling(const std::vector<std::pair<uint64_t, uint64_t>>& chunks,
                  uint64_t units, size_t max_chunks, uint64_t min_units) {
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_LE(chunks.size(), max_chunks);
  uint64_t next = 0;
  uint64_t smallest = ~uint64_t{0};
  uint64_t largest = 0;
  for (const auto& [begin, count] : chunks) {
    EXPECT_EQ(begin, next);
    EXPECT_GE(count, min_units);
    smallest = std::min(smallest, count);
    largest = std::max(largest, count);
    next = begin + count;
  }
  EXPECT_EQ(next, units);
  EXPECT_LE(largest - smallest, 1u);
}

TEST(ParallelSlcaPartitionTest, SplitsTileAndRespectMinimum) {
  ExpectTiling(PartitionUnits(10, 4, 1), 10, 4, 1);
  ExpectTiling(PartitionUnits(10, 4, 5), 10, 4, 5);
  ExpectTiling(PartitionUnits(3, 8, 1), 3, 8, 1);
  ExpectTiling(PartitionUnits(1000, 7, 1), 1000, 7, 1);
}

TEST(ParallelSlcaPartitionTest, NoRealSplitReturnsEmpty) {
  EXPECT_TRUE(PartitionUnits(0, 4, 1).empty());
  EXPECT_TRUE(PartitionUnits(1, 4, 1).empty());
  EXPECT_TRUE(PartitionUnits(10, 1, 1).empty());
  EXPECT_TRUE(PartitionUnits(10, 4, 10).empty());
  EXPECT_TRUE(PartitionUnits(10, 4, 100).empty());
}

// Drives the stitcher with hand-built chunk outputs and returns the
// emitted sequence.
std::vector<DeweyId> Stitch(size_t block_size,
                            const std::vector<ChunkOutput>& chunks,
                            QueryStats* stats) {
  std::vector<DeweyId> got;
  ResultCallback emit = [&](const DeweyId& id) { got.push_back(id); };
  Stitcher stitcher(block_size, stats, emit);
  for (const ChunkOutput& chunk : chunks) stitcher.Add(chunk);
  stitcher.Finish();
  return got;
}

ChunkOutput MakeChunk(const std::vector<std::string>& confirmed,
                      const std::string& pending) {
  ChunkOutput out;
  out.confirmed = Ids(confirmed);
  if (!pending.empty()) {
    out.pending = Id(pending);
    out.has_pending = true;
  }
  return out;
}

TEST(ParallelSlcaStitcherTest, FinalPendingAlwaysEmitted) {
  QueryStats stats;
  const std::vector<DeweyId> got =
      Stitch(1, {MakeChunk({"0.0"}, "0.1")}, &stats);
  EXPECT_EQ(Strings(got), Strings(Ids({"0.0", "0.1"})));
  EXPECT_EQ(stats.results, 2u);
}

TEST(ParallelSlcaStitcherTest, SeamAncestorPendingIsDiscarded) {
  // Chunk 0 ends with candidate 0.0; chunk 1's first survivor 0.0.1 is
  // its descendant, so Lemma 2 refutes 0.0 at the seam.
  QueryStats stats;
  const std::vector<DeweyId> got =
      Stitch(1, {MakeChunk({}, "0.0"), MakeChunk({"0.0.1"}, "0.2")}, &stats);
  EXPECT_EQ(Strings(got), Strings(Ids({"0.0.1", "0.2"})));
  EXPECT_EQ(stats.results, 2u);
}

TEST(ParallelSlcaStitcherTest, SeamNonAncestorPendingIsConfirmed) {
  QueryStats stats;
  const std::vector<DeweyId> got =
      Stitch(1, {MakeChunk({}, "0.0"), MakeChunk({"0.1"}, "0.2")}, &stats);
  EXPECT_EQ(Strings(got), Strings(Ids({"0.0", "0.1", "0.2"})));
}

TEST(ParallelSlcaStitcherTest, SeamDropsLocallyConfirmedUnderestimates) {
  // Chunk 1 locally confirmed 0.2, but chunk 0's candidate 0.5 shows the
  // true running maximum was larger: Lemma 1 across the seam drops it.
  QueryStats stats;
  const std::vector<DeweyId> got =
      Stitch(1, {MakeChunk({}, "0.5"), MakeChunk({"0.2"}, "0.6")}, &stats);
  EXPECT_EQ(Strings(got), Strings(Ids({"0.5", "0.6"})));
}

TEST(ParallelSlcaStitcherTest, SeamKeepsLargerPendingOverSmallerPending) {
  // A whole chunk can be swallowed by the previous candidate: its pending
  // is <= the running candidate, which must survive unchanged.
  QueryStats stats;
  const std::vector<DeweyId> got =
      Stitch(1, {MakeChunk({}, "0.5"), MakeChunk({}, "0.5")}, &stats);
  EXPECT_EQ(Strings(got), Strings(Ids({"0.5"})));
  EXPECT_EQ(stats.results, 1u);
}

TEST(ParallelSlcaStitcherTest, BlockSizeBatchesButNeverChangesTheSet) {
  for (size_t block : {0u, 1u, 3u, 64u}) {
    QueryStats stats;
    const std::vector<DeweyId> got = Stitch(
        block,
        {MakeChunk({"0.0", "0.1"}, "0.2"), MakeChunk({"0.3"}, "0.4")}, &stats);
    EXPECT_EQ(Strings(got), Strings(Ids({"0.0", "0.1", "0.2", "0.3", "0.4"})))
        << "block=" << block;
    EXPECT_EQ(stats.results, 5u);
  }
}

enum class Layout { kVector, kPacked, kDisk };

std::string ToString(Layout layout) {
  switch (layout) {
    case Layout::kVector:
      return "vector";
    case Layout::kPacked:
      return "packed";
    case Layout::kDisk:
      return "disk";
  }
  return "?";
}

/// One random collection plus adapters over every storage layout. The
/// document is large enough that packed skip-table blocks (32 entries)
/// and disk scan blocks (tiny scan_block_bytes below) both split into
/// many chunkable units.
class ParallelSlcaFixture {
 public:
  explicit ParallelSlcaFixture(uint64_t seed, size_t node_count = 1500,
                               size_t vocab = 3) {
    Rng rng(seed);
    RandomTreeOptions options;
    options.node_count = node_count;
    options.vocab_size = vocab;
    doc_ = GenerateRandomDocument(&rng, options);
    index_ = std::make_unique<InvertedIndex>(InvertedIndex::Build(doc_));
    DiskIndexOptions disk_options;
    disk_options.in_memory = true;
    disk_options.scan_block_bytes = 64;
    Result<std::unique_ptr<DiskIndex>> disk =
        DiskIndex::Build(*index_, "", disk_options);
    EXPECT_TRUE(disk.ok()) << disk.status().ToString();
    disk_ = disk.MoveValueUnsafe();
    for (const std::string& kw : RandomTreeVocabulary(options)) {
      keywords_.push_back(kw);
      materialized_.push_back(index_->Materialize(kw));
    }
  }

  // Builds fresh per-run adapters (lists are stateful: probe hints,
  // charged stats), ordered smallest-first like the query engine.
  std::vector<std::unique_ptr<KeywordList>> MakeLists(
      Layout layout, const std::vector<size_t>& terms, QueryStats* stats) {
    std::vector<std::unique_ptr<KeywordList>> lists;
    for (size_t t : terms) lists.push_back(MakeList(layout, t, stats));
    // Ascending size, so lists[0] (the chunked list) is S1 like the
    // query engine arranges it.
    std::stable_sort(lists.begin(), lists.end(),
                     [](const std::unique_ptr<KeywordList>& a,
                        const std::unique_ptr<KeywordList>& b) {
                       return a->size() < b->size();
                     });
    return lists;
  }

  std::unique_ptr<KeywordList> MakeList(Layout layout, size_t term,
                                        QueryStats* stats) {
    switch (layout) {
      case Layout::kVector:
        return std::make_unique<VectorKeywordList>(&materialized_[term],
                                                   stats);
      case Layout::kPacked:
        return std::make_unique<PackedKeywordList>(
            index_->Find(keywords_[term]), stats);
      case Layout::kDisk: {
        const DiskIndex::TermInfo* info = disk_->FindTerm(keywords_[term]);
        EXPECT_NE(info, nullptr);
        return std::make_unique<DiskKeywordList>(disk_.get(), info->id,
                                                 info->frequency, stats);
      }
    }
    return nullptr;
  }

  const std::vector<DeweyId>& list(size_t term) const {
    return materialized_[term];
  }
  size_t terms() const { return keywords_.size(); }

 private:
  Document doc_;
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<DiskIndex> disk_;
  std::vector<std::string> keywords_;
  std::vector<std::vector<DeweyId>> materialized_;
};

std::vector<DeweyId> Drain(KeywordListIterator* iter) {
  std::vector<DeweyId> out;
  DeweyId id;
  while (iter->Next(&id)) out.push_back(id);
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  return out;
}

// Chunk iterators concatenated in order must reproduce the full list on
// every layout, and each chunk's `first` must match its actual front.
TEST(ParallelSlcaChunkPlanTest, ChunksTileTheListOnEveryLayout) {
  ParallelSlcaFixture fx(41);
  for (Layout layout : {Layout::kVector, Layout::kPacked, Layout::kDisk}) {
    for (size_t chunks : {2u, 3u, 8u}) {
      QueryStats stats;
      std::unique_ptr<KeywordList> list = fx.MakeList(layout, 0, &stats);
      Result<std::vector<ListChunk>> plan = list->PlanChunks(chunks, 1);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (plan->size() <= 1) continue;  // too few blocks to split this far
      EXPECT_LE(plan->size(), chunks);
      std::vector<DeweyId> stitched;
      for (const ListChunk& chunk : *plan) {
        Result<std::unique_ptr<KeywordListIterator>> iter =
            list->NewChunkIterator(chunk);
        ASSERT_TRUE(iter.ok()) << iter.status().ToString();
        const std::vector<DeweyId> part = Drain(iter->get());
        ASSERT_FALSE(part.empty());
        EXPECT_EQ(part.front(), chunk.first)
            << ToString(layout) << " chunks=" << chunks;
        stitched.insert(stitched.end(), part.begin(), part.end());
      }
      EXPECT_EQ(Strings(stitched), Strings(fx.list(0)))
          << ToString(layout) << " chunks=" << chunks;
    }
  }
}

// NewIteratorAt(start) must position exactly where a sequential forward
// scan would stand after passing `start`: prev = greatest element <
// start, front = first element >= start, suffix identical. Probed at
// every list element and at synthetic mid-gap ids.
TEST(ParallelSlcaSeekTest, IteratorAtMatchesSequentialCursorState) {
  ParallelSlcaFixture fx(42, /*node_count=*/400);
  const std::vector<DeweyId>& ids = fx.list(0);
  ASSERT_GE(ids.size(), 10u);
  std::vector<DeweyId> probes = ids;
  for (const DeweyId& id : ids) {
    // A child of a list element sorts between it and its successor.
    probes.push_back(Id(id.ToString() + ".0"));
  }
  for (Layout layout : {Layout::kVector, Layout::kPacked, Layout::kDisk}) {
    QueryStats stats;
    std::unique_ptr<KeywordList> list = fx.MakeList(layout, 0, &stats);
    for (const DeweyId& probe : probes) {
      const auto lower = std::lower_bound(ids.begin(), ids.end(), probe);
      DeweyId prev;
      bool prev_valid = false;
      Result<std::unique_ptr<KeywordListIterator>> iter =
          list->NewIteratorAt(probe, &prev, &prev_valid);
      ASSERT_TRUE(iter.ok()) << iter.status().ToString();
      // On an exact hit implementations may skip the predecessor (the
      // hit itself pins any regressed probe target); otherwise it is
      // mandatory whenever one exists.
      const bool exact = lower != ids.end() && *lower == probe;
      if (!exact) {
        EXPECT_EQ(prev_valid, lower != ids.begin())
            << ToString(layout) << " probe=" << probe.ToString();
      }
      if (prev_valid) {
        ASSERT_NE(lower, ids.begin()) << ToString(layout);
        EXPECT_EQ(prev, *(lower - 1)) << ToString(layout);
      }
      const std::vector<DeweyId> suffix = Drain(iter->get());
      EXPECT_EQ(Strings(suffix),
                Strings(std::vector<DeweyId>(lower, ids.end())))
          << ToString(layout) << " probe=" << probe.ToString();
    }
  }
}

struct ParityCase {
  uint64_t seed;
  SlcaAlgorithm algorithm;
  Layout layout;
};

std::string ParityName(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string algo = ToString(info.param.algorithm);
  std::replace(algo.begin(), algo.end(), ' ', '_');
  std::replace(algo.begin(), algo.end(), '-', '_');
  return "seed" + std::to_string(info.param.seed) + "_" + algo + "_" +
         ToString(info.param.layout);
}

class ParallelSlcaParityTest : public ::testing::TestWithParam<ParityCase> {};

// The contract the fuzzer also enforces: at every block size x chunk
// count, the chunked run reproduces the sequential run's exact result
// sequence (document order, duplicate-free) and its match_ops / results
// counters.
TEST_P(ParallelSlcaParityTest, ChunkedMatchesSequential) {
  const ParityCase& param = GetParam();
  ParallelSlcaFixture fx(param.seed);
  serve::ThreadPool::Options pool_options;
  pool_options.workers = 3;
  serve::ThreadPool pool(pool_options);
  ConcurrencyBudget budget(3);

  const std::vector<std::vector<size_t>> queries = {{0, 1}, {0, 1, 2}, {2, 2}};
  for (const std::vector<size_t>& terms : queries) {
    for (size_t block : {1u, 3u, 64u}) {
      SlcaOptions slca_options;
      slca_options.block_size = block;

      QueryStats seq_stats;
      std::vector<std::unique_ptr<KeywordList>> seq_owned =
          fx.MakeLists(param.layout, terms, &seq_stats);
      std::vector<KeywordList*> seq_lists;
      for (const auto& l : seq_owned) seq_lists.push_back(l.get());
      std::vector<DeweyId> expected;
      XKS_ASSERT_OK(ComputeSlca(
          param.algorithm, seq_lists, slca_options, &seq_stats,
          [&](const DeweyId& id) { expected.push_back(id); }));

      // Document order and duplicate-freedom of the baseline itself.
      for (size_t i = 1; i < expected.size(); ++i) {
        ASSERT_TRUE(expected[i - 1] < expected[i]);
      }

      for (size_t chunks : {1u, 2u, 3u, 8u}) {
        QueryStats stats;
        std::vector<std::unique_ptr<KeywordList>> owned =
            fx.MakeLists(param.layout, terms, &stats);
        std::vector<KeywordList*> lists;
        for (const auto& l : owned) lists.push_back(l.get());
        ParallelExecOptions exec;
        exec.pool = &pool;
        exec.budget = &budget;
        exec.max_chunks = chunks;
        exec.min_chunk_elements = 1;
        std::vector<DeweyId> got;
        const uint64_t tasks_before = pool.tasks_run();
        XKS_ASSERT_OK(ComputeSlcaParallel(
            param.algorithm, lists, slca_options, exec, &stats,
            [&](const DeweyId& id) { got.push_back(id); }));
        if (chunks >= 2) {
          // Parity must not hold vacuously: with multiple chunks allowed
          // and a one-element minimum, at least one chunk has to have run
          // on the pool (the coordinator waits for every submitted task
          // before returning, so the counter is settled here).
          EXPECT_GT(pool.tasks_run(), tasks_before)
              << "block=" << block << " chunks=" << chunks;
        } else {
          EXPECT_EQ(pool.tasks_run(), tasks_before);
        }
        EXPECT_EQ(Strings(got), Strings(expected))
            << "block=" << block << " chunks=" << chunks;
        EXPECT_EQ(stats.match_ops, seq_stats.match_ops)
            << "block=" << block << " chunks=" << chunks;
        EXPECT_EQ(stats.results, seq_stats.results)
            << "block=" << block << " chunks=" << chunks;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndAlgorithms, ParallelSlcaParityTest,
    ::testing::Values(
        ParityCase{11, SlcaAlgorithm::kIndexedLookupEager, Layout::kVector},
        ParityCase{11, SlcaAlgorithm::kIndexedLookupEager, Layout::kPacked},
        ParityCase{11, SlcaAlgorithm::kIndexedLookupEager, Layout::kDisk},
        ParityCase{11, SlcaAlgorithm::kScanEager, Layout::kVector},
        ParityCase{11, SlcaAlgorithm::kScanEager, Layout::kPacked},
        ParityCase{11, SlcaAlgorithm::kScanEager, Layout::kDisk},
        ParityCase{23, SlcaAlgorithm::kIndexedLookupEager, Layout::kDisk},
        ParityCase{23, SlcaAlgorithm::kScanEager, Layout::kDisk}),
    ParityName);

// End to end through both engines: the ParallelExecOptions argument must
// change nothing observable about the answer.
TEST(ParallelSlcaEngineTest, SearchMatchesSequentialOnBothPaths) {
  Rng rng(77);
  RandomTreeOptions tree;
  tree.node_count = 1200;
  tree.vocab_size = 3;
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(GenerateRandomDocument(&rng, tree));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  DiskIndexOptions disk_options;
  disk_options.in_memory = true;
  disk_options.scan_block_bytes = 64;
  Result<std::unique_ptr<DiskSearcher>> disk_engine =
      DiskSearcher::Build(**system, "", disk_options);
  ASSERT_TRUE(disk_engine.ok()) << disk_engine.status().ToString();
  auto search = [&](bool disk, const SearchOptions& options,
                    const ParallelExecOptions& exec) {
    return disk ? (*disk_engine)->Search({"w0", "w1"}, options, exec)
                : (*system)->Search({"w0", "w1"}, options, exec);
  };

  serve::ThreadPool::Options pool_options;
  pool_options.workers = 3;
  serve::ThreadPool pool(pool_options);
  ConcurrencyBudget budget(3);

  for (AlgorithmChoice algorithm : {AlgorithmChoice::kIndexedLookupEager,
                                    AlgorithmChoice::kScanEager}) {
    for (bool disk : {false, true}) {
      for (size_t block : {1u, 3u, 64u}) {
        SearchOptions options;
        options.algorithm = algorithm;
        options.block_size = block;
        Result<SearchResult> sequential = search(disk, options, {});
        ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
        for (size_t chunks : {2u, 3u, 8u}) {
          ParallelExecOptions exec;
          exec.pool = &pool;
          exec.budget = &budget;
          exec.max_chunks = chunks;
          exec.min_chunk_elements = 1;
          const uint64_t tasks_before = pool.tasks_run();
          Result<SearchResult> got = search(disk, options, exec);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          // The engine must have reached the chunked executor: at least
          // one chunk ran on the pool (equality here would mean the
          // parity assertions below compare the sequential path with
          // itself).
          EXPECT_GT(pool.tasks_run(), tasks_before)
              << "disk=" << disk << " block=" << block
              << " chunks=" << chunks;
          EXPECT_EQ(Strings(got->nodes), Strings(sequential->nodes))
              << "disk=" << disk << " block=" << block
              << " chunks=" << chunks;
          EXPECT_EQ(got->stats.match_ops,
                    sequential->stats.match_ops);
          EXPECT_EQ(got->stats.results,
                    sequential->stats.results);
        }
      }
    }
  }
}

}  // namespace
}  // namespace xksearch
