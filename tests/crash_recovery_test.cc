// The crash-point sweep: the PR's recovery invariant is that a process
// killed at ANY durable operation of an update batch leaves an index
// that, after reopen (which replays the WAL), answers every query
// exactly like the pre-batch index or exactly like the post-batch index
// — never a hybrid of the two. This harness proves it exhaustively: a
// fault-free counting run measures the batch's durable-operation count
// W, then the batch is re-run W times against fresh copies of the index,
// killed at operation k for every k in [1, W] (and at every fsync
// barrier), reopened, classified against the pre/post posting-set
// oracles, and queried.
//
// XK_CRASH_SWEEP_SCALE enlarges the document and the batch (the slow
// tier runs scale 3); the sweep is exhaustive at every scale.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/disk_searcher.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "slca/brute_force.h"
#include "storage/disk_index.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Strings;

using PostingMap = std::map<std::string, std::vector<DeweyId>>;

int SweepScale() {
  const char* env = std::getenv("XK_CRASH_SWEEP_SCALE");
  if (env == nullptr) return 1;
  const int scale = std::atoi(env);
  return scale > 0 ? scale : 1;
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  ASSERT_TRUE(in.good()) << from;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  ASSERT_TRUE(out.good()) << to;
}

class CrashRecoverySweep : public ::testing::Test {
 protected:
  struct Op {
    bool is_add;
    std::string keyword;
    DeweyId id;
  };

  void SetUp() override { Prepare(/*split_batch=*/false); }

  // Builds the pre-batch index and the batch with its post-batch oracle.
  // The split batch shrinks the scan blocks and adds dense runs, so its
  // apply splits scan-tree nodes several ways and re-keys blocks.
  void Prepare(bool split_batch) {
    base_prefix_ = testing_util::UniqueTempPrefix("crash_base");
    work_prefix_ = testing_util::UniqueTempPrefix("crash_work");
    const int scale = SweepScale();
    if (split_batch) options_.scan_block_bytes = 64;

    // Pre-batch index: a regular grid of postings, plus a deep filler
    // posting to widen the level table (CanEncode headroom for adds).
    // The posting lists are packed per term, so the on-disk tree size —
    // and with it the sweep domain W — scales with DISTINCT terms, not
    // with list length; the `bulk` family provides that term diversity.
    for (int i = 0; i < 30 * scale; ++i) {
      const std::string si = std::to_string(i);
      source_.AddPosting("alpha", Id("0." + si + ".0"));
      source_.AddPosting("beta", Id("0." + si + ".1"));
      source_.AddPosting(i % 2 == 0 ? "gamma" : "delta", Id("0." + si + ".2"));
      source_.AddPosting("bulk" + si, Id("0." + si + ".4"));
    }
    source_.AddPosting("zzfiller", Id("0.7.7.7"));
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(source_, base_prefix_, options_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    // The batch: remove every other alpha posting and all delta
    // postings, extend beta, introduce a brand-new keyword.
    for (const std::string& term : source_.Terms()) {
      for (const DeweyId& id : source_.Materialize(term)) {
        pre_[term].push_back(id);
      }
    }
    int n = 0;
    for (const DeweyId& id : pre_["alpha"]) {
      if (n++ % 2 == 0) ops_.push_back({false, "alpha", id});
    }
    for (const DeweyId& id : pre_["delta"]) {
      ops_.push_back({false, "delta", id});
    }
    for (int i = 0; i < 30 * scale; ++i) {
      const std::string si = std::to_string(i);
      ops_.push_back({true, "beta", Id("0." + si + ".3")});
      if (i % 2 == 0) ops_.push_back({true, "omega", Id("0." + si + ".2")});
      ops_.push_back({true, "fresh" + si, Id("0." + si + ".5")});
    }
    if (split_batch) {
      // Dense runs: 1,920 beta postings inside beta's one IL leaf and
      // first scan blocks, and 450 omega postings in a new term. A beta
      // id before its first block and the removal of alpha's first
      // posting (above) re-key blocks.
      for (uint32_t i = 0; i < 30; ++i) {
        for (uint32_t j = 8; j < 16; ++j) {
          for (uint32_t k = 0; k < 8; ++k) {
            ops_.push_back({true, "beta", DeweyId({0, i, j, k})});
          }
        }
        for (uint32_t k = 0; k < 15; ++k) {
          ops_.push_back({true, "omega", DeweyId({0, i, 6, k})});
        }
      }
      ops_.push_back({true, "beta", Id("0.0.0.1")});
    }

    std::map<std::string, std::set<DeweyId>> post;
    for (const auto& [term, ids] : pre_) {
      post[term].insert(ids.begin(), ids.end());
    }
    for (const Op& op : ops_) {
      if (op.is_add) {
        post[op.keyword].insert(op.id);
      } else {
        post[op.keyword].erase(op.id);
      }
    }
    for (const auto& [term, ids] : post) {
      if (ids.empty()) continue;
      post_[term].assign(ids.begin(), ids.end());
    }
    for (const auto& [term, ids] : pre_) keywords_.insert(term);
    for (const auto& [term, ids] : post_) keywords_.insert(term);
  }

  void TearDown() override {
    for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
      std::remove((base_prefix_ + suffix).c_str());
      std::remove((work_prefix_ + suffix).c_str());
    }
  }

  // Fresh pre-batch copy of the index under the work prefix.
  void ResetWorkFiles() {
    for (const char* suffix : {".scan", ".dict"}) {
      CopyFile(base_prefix_ + suffix, work_prefix_ + suffix);
    }
    std::remove((work_prefix_ + ".wal").c_str());
  }

  // Runs the whole batch (Open, every op, Finish) with each store
  // wrapped in a FaultInjectingPageStore attached to `schedule`.
  // Returns the first failure (the simulated crash) or OK.
  Status RunBatch(const std::shared_ptr<CrashSchedule>& schedule) {
    DiskIndexOptions options = options_;
    options.store_decorator = [&schedule](std::unique_ptr<PageStore> store,
                                          std::string_view) {
      auto wrapped =
          std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
      wrapped->SetCrashSchedule(schedule);
      return wrapped;
    };
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(work_prefix_, options);
    if (!updater.ok()) return updater.status();
    for (const Op& op : ops_) {
      const Status st = op.is_add
                            ? (*updater)->AddPosting(op.keyword, op.id)
                            : (*updater)->RemovePosting(op.keyword, op.id);
      if (!st.ok()) return st;
    }
    return (*updater)->Finish();
  }

  // Reopens the work index (running WAL recovery), reads every keyword
  // list, checks dictionary/list agreement and zero leaked pins, and
  // cross-checks a few queries against the model's brute-force SLCA.
  PostingMap ReadRecoveredState() {
    PostingMap state;
    Result<std::unique_ptr<DiskIndex>> index =
        DiskIndex::Open(work_prefix_, options_);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    if (!index.ok()) return state;
    for (const std::string& keyword : keywords_) {
      const DiskIndex::TermInfo* info = (*index)->FindTerm(keyword);
      if (info == nullptr) continue;
      std::vector<DeweyId> ids;
      {
        Result<DiskIndex::PostingCursor> cursor =
            (*index)->OpenPostings(info->id);
        EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
        if (!cursor.ok()) continue;
        DeweyId id;
        while (cursor->Next(&id)) ids.push_back(id);
        XKS_EXPECT_OK(cursor->status());
      }
      EXPECT_EQ(info->frequency, ids.size())
          << "dictionary frequency disagrees with scan layout for "
          << keyword;
      state[keyword] = std::move(ids);
    }
    EXPECT_EQ((*index)->scan_pool()->DebugTotalPins(), 0u);
    return state;
  }

  // Whether the recovered posting sets are exactly the pre- or exactly
  // the post-batch oracle; anything else fails the test.
  enum class Side { kPre, kPost, kHybrid };
  Side Classify(const PostingMap& state) {
    if (state == pre_) return Side::kPre;
    if (state == post_) return Side::kPost;
    return Side::kHybrid;
  }

  // Query parity: the recovered index must answer like the side it was
  // classified to, via the real DiskSearcher path (IL tree match ops).
  void CheckQueries(const PostingMap& oracle) {
    Result<std::unique_ptr<DiskSearcher>> searcher =
        DiskSearcher::Open(work_prefix_);
    ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
    const std::vector<std::vector<std::string>> queries = {
        {"alpha", "beta"}, {"beta", "gamma"}, {"beta", "omega"}};
    for (const std::vector<std::string>& query : queries) {
      std::vector<std::vector<DeweyId>> lists;
      for (const std::string& keyword : query) {
        auto it = oracle.find(keyword);
        lists.push_back(it == oracle.end() ? std::vector<DeweyId>{}
                                           : it->second);
      }
      const std::vector<DeweyId> expected = BruteForceSlca(lists);
      Result<SearchResult> result = (*searcher)->Search(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Strings(result->nodes), Strings(expected))
          << "query diverged from its batch-boundary oracle";
    }
  }

  // Kills the batch at every durable operation (or every fsync barrier)
  // of a fault-free counting run and checks that each reopened index is
  // exactly the pre- or exactly the post-batch one.
  void SweepCrashPoints(bool sync_points) {
    // Counting run: W durable operations (or S fsyncs) = the domain.
    ResetWorkFiles();
    auto counting = std::make_shared<CrashSchedule>();
    XKS_ASSERT_OK(RunBatch(counting));
    const uint64_t total =
        sync_points ? counting->syncs() : counting->operations();
    ASSERT_GT(total, 0u);
    if (!sync_points) {
      RecordProperty("sweep_domain_ops", static_cast<int>(total));
      std::printf("crash sweep: %llu durable operations (scale %d)\n",
                  static_cast<unsigned long long>(total), SweepScale());
    }

    uint64_t landed_pre = 0;
    uint64_t landed_post = 0;
    for (uint64_t k = 1; k <= total; ++k) {
      SCOPED_TRACE(std::string(sync_points ? "crash at fsync "
                                           : "crash at durable operation ") +
                   std::to_string(k) + " of " + std::to_string(total));
      ResetWorkFiles();
      auto schedule = std::make_shared<CrashSchedule>();
      if (sync_points) {
        schedule->CrashAtSync(k);
      } else {
        schedule->CrashAtOperation(k);
      }
      const Status crashed = RunBatch(schedule);
      ASSERT_FALSE(crashed.ok()) << "crash point " << k << " never fired";
      if (!sync_points) {
        ASSERT_TRUE(crashed.IsIoError()) << crashed.ToString();
      }
      ASSERT_TRUE(schedule->crashed());

      const PostingMap state = ReadRecoveredState();
      const Side side = Classify(state);
      ASSERT_NE(side, Side::kHybrid)
          << "recovered index is neither pre- nor post-batch";
      if (side == Side::kPre) {
        ++landed_pre;
        CheckQueries(pre_);
      } else {
        ++landed_post;
        CheckQueries(post_);
      }
    }
    // Both outcomes must be reachable: kills before the commit fsync
    // land pre-batch, kills after it land post-batch. (All-pre would
    // mean the batch never becomes durable; all-post would mean it was
    // never staged.)
    EXPECT_GT(landed_pre, 0u);
    EXPECT_GT(landed_post, 0u);
  }

  std::string base_prefix_;
  std::string work_prefix_;
  DiskIndexOptions options_;
  InvertedIndex source_;
  std::vector<Op> ops_;
  PostingMap pre_;
  PostingMap post_;
  std::set<std::string> keywords_;
};

TEST_F(CrashRecoverySweep, FaultFreeBatchLandsOnPostState) {
  ResetWorkFiles();
  auto schedule = std::make_shared<CrashSchedule>();  // counting only
  XKS_ASSERT_OK(RunBatch(schedule));
  EXPECT_GT(schedule->operations(), 0u);
  EXPECT_GT(schedule->syncs(), 0u);
  EXPECT_FALSE(schedule->crashed());
  const PostingMap state = ReadRecoveredState();
  EXPECT_EQ(Classify(state), Side::kPost);
  CheckQueries(post_);
}

TEST_F(CrashRecoverySweep, EveryWritePointRecoversToABatchBoundary) {
  SweepCrashPoints(/*sync_points=*/false);
}

TEST_F(CrashRecoverySweep, EverySyncPointRecoversToABatchBoundary) {
  // The same sweep over fsync barriers only: dying ON the barrier is the
  // adversarial case for barrier-ordering bugs (a commit counted durable
  // before its fsync returned would surface here as a hybrid).
  SweepCrashPoints(/*sync_points=*/true);
}

// The batch whose apply splits scan-tree leaves several ways and
// re-keys scan blocks: every kill point of that apply path must still
// land exactly pre- or post-batch.
class CrashRecoverySplitSweep : public CrashRecoverySweep {
 protected:
  void SetUp() override { Prepare(/*split_batch=*/true); }
};

TEST_F(CrashRecoverySplitSweep, FaultFreeBatchSplitsScanLeaves) {
  ResetWorkFiles();
  PageId scan_before = 0;
  {
    Result<std::unique_ptr<DiskIndex>> index =
        DiskIndex::Open(work_prefix_, options_);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    scan_before = (*index)->scan_page_count();
  }
  auto schedule = std::make_shared<CrashSchedule>();
  XKS_ASSERT_OK(RunBatch(schedule));
  EXPECT_EQ(Classify(ReadRecoveredState()), Side::kPost);
  CheckQueries(post_);
  // Pages are never recycled, so page growth counts new nodes: the
  // dense runs need several new leaves.
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Open(work_prefix_, options_);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_GE((*index)->scan_page_count(), scan_before + 3);
}

TEST_F(CrashRecoverySplitSweep, EveryWritePointRecoversToABatchBoundary) {
  SweepCrashPoints(/*sync_points=*/false);
}

TEST_F(CrashRecoverySplitSweep, EverySyncPointRecoversToABatchBoundary) {
  SweepCrashPoints(/*sync_points=*/true);
}

}  // namespace
}  // namespace xksearch
